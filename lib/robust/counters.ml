(* The supervision counters are plain named entries in the process-wide
   metrics registry (Obs.Metrics): Backoff and Supervise bump them
   there, and `bpredict stats` reads them like every other metric. *)

type snapshot = {
  retries : int;
  timeouts : int;
  fuel_exhausted : int;
  task_failures : int;
}

let value name = Obs.Metrics.value (Obs.Metrics.counter name)

let snapshot () =
  {
    retries = value "robust.retries";
    timeouts = value "robust.timeouts";
    fuel_exhausted = value "robust.fuel_exhausted";
    task_failures = value "robust.task_failures";
  }
