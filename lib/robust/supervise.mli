(** The fault boundary around a supervised task.

    [run] executes a task under the full supervision contract: an
    optional wall-clock deadline, retry-with-backoff for transient
    failures, classification of the final failure into the
    {!Fault.kind} taxonomy — and it never raises: the caller always
    gets an {!outcome} and decides how to degrade. *)

type status =
  | Completed  (** first attempt succeeded *)
  | Recovered of int  (** succeeded after this many retries *)
  | Failed of Fault.t  (** permanently failed, classified *)

type 'a outcome = {
  label : string;
  attempts : int;  (** attempts actually made (>= 1) *)
  value : 'a option;  (** [Some] iff the task succeeded *)
  status : status;
}

val run :
  ?timeout:float -> ?sleep:(float -> unit) -> label:string ->
  (unit -> 'a) -> 'a outcome
(** [run ~label f] supervises [f].  With [?timeout] the body executes
    on a spawned domain against a wall-clock deadline; a task that
    misses it fails with kind [Timeout] (never retried — its orphaned
    domain may still be running, and fuel-bounding guarantees the
    orphan eventually terminates).  Transient failures retry per
    {!Backoff.default_policy}, with jitter seeded by [label] alone.
    [sleep] (default [Unix.sleepf]) exists for tests.  Counters are
    bumped for retries, timeouts, fuel exhaustion, and permanent
    failures. *)
