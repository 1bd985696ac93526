(** The supervision layer's counters as one record.

    Retries ({!Backoff.retry}), timeouts, fuel exhaustions and
    permanent task failures ({!Supervise.run}) are counted in
    {!Obs.Metrics} under [robust.retries], [robust.timeouts],
    [robust.fuel_exhausted] and [robust.task_failures]; read them with
    {!Obs.Metrics.counters} like every other metric.  [snapshot]
    remains only for the benchmark harness, which reads the record. *)

type snapshot = {
  retries : int;         (** backoff retries performed *)
  timeouts : int;        (** tasks abandoned at their deadline *)
  fuel_exhausted : int;  (** tasks stopped by the interpreter fuel limit *)
  task_failures : int;   (** supervised tasks that failed permanently *)
}

val snapshot : unit -> snapshot
(** The current [robust.*] registry values. *)
