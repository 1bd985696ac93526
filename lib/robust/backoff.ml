let max_attempts = 3
let base_delay_s = 0.002
let multiplier = 4.0
let max_delay_s = 0.25
let jitter = 0.5

(* The delay before retry [attempt] (1-based): exponential growth
   capped at [max_delay_s], scaled by a jitter factor in
   [1 - jitter/2, 1 + jitter/2), then clamped to [max_delay_s] again —
   the cap is a hard bound on the actual sleep, so jitter may shorten
   a capped delay but never stretch it past the cap.  The factor is
   drawn from [Sim.Dataset.mix] over (label, attempt): concurrent retry
   loops jitter independently, and deterministically, since
   Hashtbl.hash of a string is stable. *)
let delay ~label ~attempt =
  let a = max 1 attempt in
  let raw = base_delay_s *. (multiplier ** float_of_int (a - 1)) in
  let capped = Float.min max_delay_s raw in
  let z = Sim.Dataset.mix ((Hashtbl.hash label * 0x9E3779B9) + a) in
  let u = float_of_int (z land 0xFFFFFF) /. 16777216. in
  let jittered = capped *. (1.0 +. (jitter *. (u -. 0.5))) in
  Float.min max_delay_s jittered

let delays ~label =
  List.init (max_attempts - 1) (fun i -> delay ~label ~attempt:(i + 1))

let retries = Obs.Metrics.counter "robust.retries"

let retry ?(sleep = Unix.sleepf) ?on_retry ?(retry_on = Fault.is_transient)
    ~label f =
  let rec go attempt =
    match f () with
    | v -> v
    | exception e when attempt < max_attempts && retry_on e ->
      Obs.Metrics.incr retries;
      let d = delay ~label ~attempt in
      (match on_retry with Some k -> k ~attempt ~delay_s:d e | None -> ());
      Obs.span ~name:"backoff.sleep" ~attrs:[ ("label", label) ] (fun () ->
          sleep d);
      go (attempt + 1)
  in
  go 1
