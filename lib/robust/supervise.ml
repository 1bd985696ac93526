type status = Completed | Recovered of int | Failed of Fault.t

type 'a outcome = {
  label : string;
  attempts : int;
  value : 'a option;
  status : status;
}

(* Run [f ()] with a wall-clock deadline.  The body runs in a spawned
   domain; the caller polls its result slot and raises [Timed_out]
   when the deadline passes.  The timed-out domain is orphaned, not
   killed (OCaml has no domain cancellation) — which is safe here
   because every interpreter run is fuel-bounded, so an orphan always
   terminates on its own, and process exit reaps whatever is left. *)
let with_deadline ~label ~seconds f =
  let slot = Atomic.make None in
  let _worker =
    Domain.spawn (fun () ->
        let r =
          match f () with
          | v -> Ok v
          | exception e ->
            (* capture the backtrace here, on the domain where the body
               actually failed; the poller re-raises with it intact *)
            Error (e, Printexc.get_raw_backtrace ())
        in
        Atomic.set slot (Some r))
  in
  let deadline = Unix.gettimeofday () +. seconds in
  let rec poll () =
    match Atomic.get slot with
    | Some (Ok v) -> v
    | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
    | None ->
      if Unix.gettimeofday () > deadline then begin
        Counters.incr_timeouts ();
        raise (Fault.Timed_out { task = label; seconds })
      end;
      Unix.sleepf 0.001;
      poll ()
  in
  poll ()

let run ?timeout ?sleep ~label f =
  Obs.span ~name:"supervise" ~attrs:[ ("label", label) ] @@ fun () ->
  let attempts = ref 0 in
  let body () =
    incr attempts;
    match timeout with
    | Some seconds -> with_deadline ~label ~seconds f
    | None -> f ()
  in
  (* Timeouts are not retried: a task that missed its deadline once
     will almost surely miss it again, and the orphaned domain may
     still be running. *)
  let retry_on e = Fault.is_transient e && not (Fault.kind_of_exn e = Timeout) in
  match Backoff.retry ?sleep ~retry_on ~seed:0 ~label body with
  | v ->
    let status = if !attempts > 1 then Recovered (!attempts - 1) else Completed in
    { label; attempts = !attempts; value = Some v; status }
  | exception e ->
    Counters.incr_task_failures ();
    (match Fault.kind_of_exn e with
    | Fuel_exhausted -> Counters.incr_fuel_exhausted ()
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
