type policy = {
  max_attempts : int;
  base_delay_s : float;
  multiplier : float;
  max_delay_s : float;
  jitter : float;
}

let default_policy =
  {
    max_attempts = 3;
    base_delay_s = 0.002;
    multiplier = 4.0;
    max_delay_s = 0.25;
    jitter = 0.5;
  }

(* The delay before retry [attempt] (1-based): exponential growth
   capped at [max_delay_s], scaled by a jitter factor in
   [1 - jitter/2, 1 + jitter/2), then clamped to [max_delay_s] again —
   the cap is a hard bound on the actual sleep, so jitter may shorten
   a capped delay but never stretch it past the cap.  The factor is
   drawn from [Sim.Dataset.mix] over (label, attempt): concurrent retry
   loops jitter independently, and deterministically, since
   Hashtbl.hash of a string is stable. *)
let delay policy ~label ~attempt =
  let a = max 1 attempt in
  let raw = policy.base_delay_s *. (policy.multiplier ** float_of_int (a - 1)) in
  let capped = Float.min policy.max_delay_s raw in
  let z = Sim.Dataset.mix ((Hashtbl.hash label * 0x9E3779B9) + a) in
  let u = float_of_int (z land 0xFFFFFF) /. 16777216. in
  let jittered = capped *. (1.0 +. (policy.jitter *. (u -. 0.5))) in
  Float.min policy.max_delay_s jittered

let delays policy ~label =
  List.init (max 0 (policy.max_attempts - 1)) (fun i ->
      delay policy ~label ~attempt:(i + 1))

let delay_hist = Obs.Metrics.histogram "backoff.delay_s"
let retries = Obs.Metrics.counter "robust.retries"

let retry ?(policy = default_policy) ?(sleep = Unix.sleepf) ?on_retry
    ?(retry_on = Fault.is_transient) ~label f =
  let rec go attempt =
    match f () with
    | v -> v
    | exception e when attempt < policy.max_attempts && retry_on e ->
      Obs.Metrics.incr retries;
      let d = delay policy ~label ~attempt in
      Obs.Metrics.observe delay_hist d;
      (match on_retry with Some k -> k ~attempt ~delay_s:d e | None -> ());
      sleep d;
      go (attempt + 1)
  in
  go 1
