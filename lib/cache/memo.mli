(** In-process find-or-add tables that domains can share: the
    in-memory layer next to the on-disk {!Store}.  Each product the
    experiments reuse within a process (compiled programs, workload
    runs, databases, the miss matrix, trace distributions) is a pure
    function of its key, so one table shape serves them all. *)

type ('k, 'v) t

val create : unit -> ('k, 'v) t
(** An empty table, registered for {!reset_all}.  Keys are compared
    structurally. *)

val find_or_add : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** [find_or_add t key compute] returns the value stored under [key],
    or runs [compute ()], stores its result and returns it.  [compute]
    runs outside the table's lock, so it may use other tables or the
    pool.  Domains racing on one key may each run [compute], but all
    get the first value stored.  If [compute] raises, nothing is
    stored. *)

val clear : ('k, 'v) t -> unit
(** Drop every entry of one table. *)

val reset_all : unit -> unit
(** {!clear} every table ever created, so benchmarks and gates can
    time or compare cold pipelines. *)
