type status = Completed | Recovered of int | Failed of Fault.t

type 'a outcome = {
  label : string;
  attempts : int;
  value : 'a option;
  status : status;
}

(* Run [f ()] on the calling domain under the process-wide deadline,
   narrowed to [seconds] from now and restored afterwards.  The body
   stops at its next checkpoint once the deadline passes; a body that
   reaches none, but returns late, times out here. *)
let within ~seconds f =
  let saved = Sim.Machine.deadline () in
  Sim.Machine.set_deadline (Float.min saved (Unix.gettimeofday () +. seconds));
  Fun.protect
    ~finally:(fun () -> Sim.Machine.set_deadline saved)
    (fun () ->
      let v = f () in
      Sim.Machine.check_deadline ();
      v)

let run ?timeout ?sleep ~label f =
  Obs.span ~name:"supervise" ~attrs:[ ("label", label) ] @@ fun () ->
  let attempts = ref 0 in
  let body () =
    incr attempts;
    match timeout with
    | Some seconds -> within ~seconds f
    | None -> f ()
  in
  (* Only transient failures are retried; a task that missed its
     deadline once would almost surely miss it again. *)
  match Backoff.retry ?sleep ~seed:0 ~label body with
  | v ->
    let status = if !attempts > 1 then Recovered (!attempts - 1) else Completed in
    { label; attempts = !attempts; value = Some v; status }
  | exception e ->
    Counters.incr_task_failures ();
    (match Fault.kind_of_exn e with
    | Fuel_exhausted -> Counters.incr_fuel_exhausted ()
    | Timeout -> Counters.incr_timeouts ()
    | _ -> ());
    let backtrace =
      (* Prefer the backtrace the pool captured where the task raised,
         on whichever domain ran it. *)
      match e with
      | Par.Pool.Task_failed { backtrace; _ } ->
        Some (Printexc.raw_backtrace_to_string backtrace)
      | _ -> (
        match Printexc.get_backtrace () with "" -> None | bt -> Some bt)
    in
    let fault = Fault.of_exn ?backtrace ~task:label e in
    { label; attempts = !attempts; value = None; status = Failed fault }
