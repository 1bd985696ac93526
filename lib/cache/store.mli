(** Persistent memoisation of expensive pipeline products.

    The simulator is deterministic: a profile, a trace distribution or
    a subset enumeration is a pure function of the program, its input
    and the analysis code.  This store keeps such products on disk —
    keyed by a digest of the inputs and a caller-chosen version tag —
    so warm runs skip simulation entirely.

    Entries live under one directory (default [_cache/] in the current
    working directory, overridable with [BALLARUS_CACHE_DIR]).  The
    store is enabled by default; set [BALLARUS_NO_CACHE] to any
    non-empty value, pass [--no-cache] to the CLIs, or call
    [set_enabled false] to bypass it.

    Robustness: entries are written to a temporary file and renamed
    into place, so readers never observe a half-written entry; every
    entry carries a payload digest.  A corrupt or truncated entry is
    quarantined (deleted and counted) so it cannot re-trip on every
    subsequent run, then recomputed and rewritten; failed writes are
    retried with backoff and, if still failing, abandoned — a cache
    write only costs warmth, never correctness.

    Counters: the store counts its traffic and its recovery actions in
    {!Obs.Metrics}, read like every other metric.  Traffic:
    [cache.hit], [cache.miss], [cache.corrupt], [cache.write].
    Recovery: [cache.corrupt_quarantined] (damaged entries detected,
    deleted and recomputed), [cache.write_retries] (failed write
    attempts that were retried), [cache.write_failures] (writes
    abandoned after exhausting retries) and [cache.tmp_cleaned]
    (orphaned [.tmp] files deleted after a permanent write failure). *)

val enabled : unit -> bool
(** Whether lookups and writes happen at all.  Starts as
    [not BALLARUS_NO_CACHE]. *)

val set_enabled : bool -> unit
(** Turn the store on or off for this process ([--no-cache]). *)

val dir : unit -> string
(** The cache directory currently in force. *)

val set_dir : string -> unit
(** Redirect the store (used by tests; overrides
    [BALLARUS_CACHE_DIR]). *)

val memo : version:string -> key:'k -> (unit -> 'v) -> 'v
(** [memo ~version ~key compute] returns the cached value for
    [(version, key)] or runs [compute], stores its result, and returns
    it.  [key] may be any marshallable value; its digest (together
    with [version]) names the entry on disk.

    [version] must uniquely identify both the call site's value type
    and the schema of the computation — bumping it invalidates every
    old entry of that call site, and two call sites must never share a
    version string (the store cannot distinguish their types). *)

val clear : unit -> unit
(** Delete every entry in {!dir}.  Missing directory is fine. *)
