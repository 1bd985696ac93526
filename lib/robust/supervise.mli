(** The fault boundary around a supervised task.

    [run] executes a task under the full supervision contract: an
    optional cooperative wall-clock deadline, retry-with-backoff for
    transient failures, classification of the final failure into the
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
(** [run ~label f] supervises [f], always on the calling domain.

    {b Deadline contract.}  With [?timeout], a body that runs past its
    deadline fails with kind [Timeout].  The deadline is the
    process-wide {!Sim.Machine.deadline}: [run] narrows it to the
    earlier of the deadline already in force and [timeout] seconds
    from now, and restores the old value when the body ends.  Nothing
    is pre-empted.  Work stops at its next checkpoint, on whichever
    domain it runs (pool workers share the cell):
    - the pre-decoded interpreter ({!Sim.Machine.run_decoded}, hence
      every profile and trace run) at the start of each run and once
      per fuel slice of 2{^16} instructions;
    - {!Predict.Subset.run} once per 8192-trial chunk;
    - [run] itself when the body returns, so a body that never reaches
      a checkpoint but returns late still times out.
    Timed runs nest, but must not overlap on different domains: each
    restores the one cell on exit.
    A timed-out task is never retried.  A computation interrupted at a
    checkpoint writes no {!Cache.Memo} or {!Cache.Store} entry, since
    neither stores anything when [compute] raises.

    Transient failures retry per {!Backoff.default_policy}, with
    jitter drawn from [label].  [sleep] (default [Unix.sleepf]) exists
    for tests.  The [robust.*] registry counters are bumped for
    retries, timeouts, fuel exhaustion, and permanent failures. *)
