(** A fixed-size [Domain] worker pool with deterministic fork-join
    combinators.

    The pool owns [jobs - 1] worker domains; the calling domain is the
    remaining worker, so [jobs = 1] degenerates to plain sequential
    execution with no domain ever spawned.  Tasks are indices [0 .. n-1]
    handed out through an atomic counter; every combinator stores each
    task's result in a slot owned by that task and merges slots in
    ascending index order, so results are independent of how tasks were
    scheduled across domains.

    The pool is built only from the stdlib ([Domain], [Atomic],
    [Mutex], [Condition]) — no external dependency. *)

exception Task_failed of {
  index : int;  (** the task index whose body raised *)
  exn : exn;  (** the original exception *)
  backtrace : Printexc.raw_backtrace;
      (** captured where the task raised, on whichever domain ran it *)
}
(** Raised in the caller when any task of a fork-join job fails.  The
    failing task's identity and backtrace are preserved; the first
    failure (by completion order) wins.  Worker domains themselves
    never die from a task exception — they record it and keep serving
    jobs — so one bad task cannot poison the pool. *)

type t

val create : jobs:int -> t
(** [create ~jobs] spawns [max 0 (jobs - 1)] worker domains.  [jobs]
    is clamped to at least 1.  Workers idle on a condition variable
    between jobs. *)

val jobs : t -> int
(** Parallel width of the pool (worker domains + the caller). *)

val has_pending_job : t -> bool
(** Whether the pool currently holds a job reference.  Between runs
    this must be [false]: a drained job is dropped at join time so its
    [body] closure (and everything it captures) does not stay live
    until the next [run].  Exposed for the regression test. *)

val shutdown : t -> unit
(** Terminate and join the worker domains.  The pool must be idle.
    Idempotent. *)

val run : t -> int -> (int -> unit) -> unit
(** [run t n body] executes [body i] exactly once for every
    [0 <= i < n], distributing indices over the pool's domains.  The
    caller participates and returns once all [n] tasks have finished.
    If any task raises, the join re-raises {!Task_failed} in the
    caller, carrying the failing index, original exception, and its
    backtrace.  The sequential fast path ([jobs = 1] or [n = 1])
    stops at the first exception; the pool path runs every index. *)

val parallel_for : t -> ?chunk:int -> ?min_per_domain:int -> int ->
  (int -> unit) -> unit
(** [parallel_for t ?chunk n body] runs [body i] for [0 <= i < n],
    grouping [chunk] consecutive indices into one task (default: a
    chunk size aiming at ~4 tasks per domain).  Within a chunk, indices
    run in ascending order on one domain.

    [min_per_domain] is a sequential-fallback threshold: when
    [n < 2 * min_per_domain] — too little work for even two domains —
    the whole range runs as an ordinary loop on the calling domain,
    with no pool handoff.  Results are identical either way.

    Failures re-raise as {!Task_failed}; on the chunked parallel path
    the reported index is the chunk's task index. *)

val parallel_map : t -> ('a -> 'b) -> 'a array -> 'b array
(** Like [Array.map], with elements processed across the pool.  The
    result preserves input order. *)

val parallel_map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** Like [List.map], with elements processed across the pool. *)

val reduce : t -> n:int -> chunk:int ->
  map:(int -> int -> 'a) -> merge:('a -> 'a -> 'a) -> init:'a -> unit -> 'a
(** Chunked reduce: the index range [0, n) is cut into fixed chunks of
    size [chunk]; [map lo hi] folds one chunk [lo, hi) to a partial
    value, and partials are combined as
    [merge (... (merge init p0) ...) plast] in ascending chunk order.
    Because the chunk decomposition depends only on [n] and [chunk]
    (never on the pool width), the result is identical for any number
    of domains even when [merge] is not associative-commutative in
    floating point.

    Adjacent chunks are batched into about four scheduled tasks per
    domain.  Batching coarsens scheduling without touching the chunk
    decomposition, so it never changes the result. *)

(** {1 The process-wide default pool}

    Hot paths in the rest of the repository share one global pool.
    Its width is, in order of precedence: the last [set_jobs] call
    (the [-j] flag), the [BALLARUS_JOBS] environment variable, or —
    absent any explicit request — a clamp to
    [Domain.recommended_domain_count ()], because oversubscribing
    domains makes every stage slower. *)

val effective_jobs : unit -> int
(** The width the default pool would have right now: the explicit
    request if any, else [Domain.recommended_domain_count ()]. *)

val set_jobs : int -> unit
(** Override the default pool width ([-j N]).  If the default pool
    already exists at a different width it is shut down and lazily
    re-created.  Must not be called from inside a parallel section. *)

val get : unit -> t
(** The process-wide pool, created on first use.  An [at_exit] hook
    shuts it down so the process never exits with live domains. *)
