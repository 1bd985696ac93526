(* Tests for the supervision layer: the fault taxonomy, backoff
   determinism, supervised task outcomes, cooperative wall-clock
   timeouts, deterministic fault injection, the registry counters the
   layer reports, and graceful suite degradation when a runaway program
   exhausts its fuel. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

exception Boom

let test_taxonomy () =
  let open Robust.Fault in
  checkb "chaos is transient" true
    (kind_of_exn (Robust.Inject.Chaos "x") = Transient);
  checkb "out of fuel" true
    (kind_of_exn (Sim.Machine.Out_of_fuel "m") = Fuel_exhausted);
  checkb "timeout" true (kind_of_exn Sim.Machine.Deadline_exceeded = Timeout);
  checkb "EINTR is transient" true
    (kind_of_exn (Unix.Unix_error (Unix.EINTR, "read", "")) = Transient);
  checkb "unknown is hard" true (kind_of_exn Boom = Hard);
  (* pool wrappers are peeled: the inner exception decides *)
  let bt = Printexc.get_raw_backtrace () in
  let wrapped =
    Par.Pool.Task_failed
      { index = 3; exn = Sim.Machine.Out_of_fuel "m"; backtrace = bt }
  in
  checkb "wrapper peeled" true (kind_of_exn wrapped = Fuel_exhausted);
  checkb "unwrap returns inner" true
    (unwrap wrapped = Sim.Machine.Out_of_fuel "m");
  checkb "transient predicate" true (is_transient (Robust.Inject.Chaos "x"));
  checkb "hard not transient" false (is_transient Boom)

let test_backoff_determinism () =
  let max_attempts = Robust.Backoff.max_attempts in
  let d1 = Robust.Backoff.delays ~label:"spy" in
  let d2 = Robust.Backoff.delays ~label:"spy" in
  let d3 = Robust.Backoff.delays ~label:"other" in
  checki "schedule length" (max_attempts - 1) (List.length d1);
  checkb "same label, same schedule" true (d1 = d2);
  checkb "different label, different schedule" true (d1 <> d3);
  List.iter
    (fun d ->
      checkb "delay within the hard cap" true
        (d > 0. && d <= Robust.Backoff.max_delay_s))
    d1;
  (* retry sleeps exactly the label's schedule, reproducibly *)
  let run_spy () =
    let slept = ref [] in
    let attempts = ref 0 in
    (try
       Robust.Backoff.retry
         ~sleep:(fun d -> slept := d :: !slept)
         ~retry_on:(fun _ -> true)
         ~label:"spy"
         (fun () ->
           incr attempts;
           raise Boom)
     with Boom -> ());
    (!attempts, List.rev !slept)
  in
  let a1, s1 = run_spy () in
  let a2, s2 = run_spy () in
  checki "all attempts used" max_attempts a1;
  checki "slept between attempts" (max_attempts - 1) (List.length s1);
  checkb "sleep schedule reproducible" true (a1 = a2 && s1 = s2);
  checkb "sleeps follow the label's schedule" true (s1 = d1);
  (* each retry sleep is recorded as a [backoff.sleep] span *)
  Obs.reset_events ();
  Obs.enable ();
  ignore (run_spy ());
  Obs.disable ();
  let sleeps =
    List.filter
      (fun (e : Obs.event) -> String.equal e.name "backoff.sleep")
      (Obs.events ())
  in
  Obs.reset_events ();
  checki "one backoff.sleep span per retry" (max_attempts - 1)
    (List.length sleeps)

(* Regression for the jitter-after-cap bug: the jitter factor used to
   be applied to the already-capped delay, so a +jitter draw could
   stretch the sleep up to 1.5x past [max_delay_s].  The cap is now
   re-applied after jitter; no (label, attempt) combination may exceed
   it. *)
let prop_backoff_cap =
  QCheck.Test.make ~name:"delay never exceeds max_delay_s" ~count:1000
    QCheck.(make Gen.(pair (string_size (int_bound 12)) (int_range 1 12)))
    (fun (label, attempt) ->
      let d = Robust.Backoff.delay ~label ~attempt in
      d >= 0. && d <= Robust.Backoff.max_delay_s)

let test_retry_only_transient () =
  (* default retry_on: hard failures are never retried *)
  let attempts = ref 0 in
  (try
     Robust.Backoff.retry
       ~sleep:(fun _ -> ())
       ~label:"hard"
       (fun () ->
         incr attempts;
         raise Boom)
   with Boom -> ());
  checki "hard fails once" 1 !attempts;
  let attempts = ref 0 in
  let v =
    Robust.Backoff.retry
      ~sleep:(fun _ -> ())
      ~label:"flaky"
      (fun () ->
        incr attempts;
        if !attempts < 3 then raise (Robust.Inject.Chaos "flake") else 99)
  in
  checki "transient retried to success" 3 !attempts;
  checki "value through" 99 v

let test_supervise_outcomes () =
  let ok = Robust.Supervise.run ~label:"ok" (fun () -> 7) in
  checkb "completed" true (ok.status = Robust.Supervise.Completed);
  checkb "value" true (ok.value = Some 7);
  checki "one attempt" 1 ok.attempts;
  let n = ref 0 in
  let rec_ =
    Robust.Supervise.run
      ~sleep:(fun _ -> ())
      ~label:"flaky"
      (fun () ->
        incr n;
        if !n < 3 then raise (Robust.Inject.Chaos "flake") else 42)
  in
  checkb "recovered after 2 retries" true
    (rec_.status = Robust.Supervise.Recovered 2);
  checkb "recovered value" true (rec_.value = Some 42);
  checki "three attempts" 3 rec_.attempts;
  let hard =
    Robust.Supervise.run ~sleep:(fun _ -> ()) ~label:"hard" (fun () -> raise Boom)
  in
  checki "hard fails immediately" 1 hard.attempts;
  (match hard.status with
  | Robust.Supervise.Failed f ->
    checkb "classified hard" true (f.kind = Robust.Fault.Hard);
    checkb "label kept" true (String.equal f.task "hard")
  | _ -> Alcotest.fail "expected Failed")

(* Simulated programs on a small memory, so each run is cheap to set
   up: [runaway] loops forever (only fuel or the deadline stops it);
   [counter n] halts after [n] iterations of a three-instruction
   loop. *)
let small_program main =
  Mips.Program.make ~gp_base:16 ~heap_base:512 ~stack_base:3072
    ~mem_words:4096 ~entry:"main" [ ("main", main) ]

let runaway =
  let open Mips.Asm in
  let t0 = Mips.Reg.t 0 in
  Sim.Decode.of_program
    (small_program
       [ Lab "top"; Ins (Mips.Insn.Alu (Add, t0, t0, Imm 1));
         Ins (Mips.Insn.J "top") ])

let counter n =
  let open Mips.Asm in
  let t0 = Mips.Reg.t 0 and t1 = Mips.Reg.t 1 in
  Sim.Decode.of_program
    (small_program
       [ Ins (Mips.Insn.Li (t1, n)); Lab "top";
         Ins (Mips.Insn.Alu (Add, t0, t0, Imm 1));
         Ins (Mips.Insn.Bne (t0, t1, "top")); Ins (Mips.Insn.PrintI t0);
         Ins Mips.Insn.Halt ])

let no_input = Sim.Dataset.make ~name:"empty" [||]
let run_forever () = ignore (Sim.Machine.run_decoded runaway no_input)

let kind_of (o : _ Robust.Supervise.outcome) =
  match o.status with
  | Robust.Supervise.Failed f -> Some f.kind
  | _ -> None

let test_timeout () =
  (* the runaway body is stopped at its next fuel-slice checkpoint
     after the deadline, on the calling domain *)
  let t0 = Unix.gettimeofday () in
  let o = Robust.Supervise.run ~timeout:0.05 ~label:"runaway" run_forever in
  let elapsed = Unix.gettimeofday () -. t0 in
  checkb "classified timeout" true (kind_of o = Some Robust.Fault.Timeout);
  checki "not retried" 1 o.attempts;
  checkb "returned near the deadline" true (elapsed < 1.0);
  (* a fast body under the same deadline completes normally *)
  let o = Robust.Supervise.run ~timeout:5.0 ~label:"fast" (fun () -> 11) in
  checkb "fast body fine" true (o.value = Some 11)

let test_late_return () =
  (* a body that never reaches a checkpoint cannot be stopped, but one
     that returns after its deadline still fails as a timeout *)
  let o =
    Robust.Supervise.run ~timeout:0.05 ~label:"late" (fun () ->
        Unix.sleepf 0.2;
        5)
  in
  checkb "late return is a timeout" true
    (kind_of o = Some Robust.Fault.Timeout);
  checkb "no value" true (o.value = None)

(* Regression for the domain-per-timeout supervisor: each timed body
   ran on a spawned domain that was orphaned at the deadline, so a
   burst of timeouts exhausted the runtime's domain slots — later
   bodies failed [hard] with "failed to allocate domain", and so did
   the next pool.  With a cooperative deadline every body runs on the
   calling domain. *)
let test_many_timeouts () =
  let before = (Robust.Counters.snapshot ()).timeouts in
  for i = 1 to 1000 do
    let o = Robust.Supervise.run ~timeout:0.001 ~label:"burst" run_forever in
    if kind_of o <> Some Robust.Fault.Timeout then
      Alcotest.failf "timeout %d: %s" i
        (match o.status with
        | Robust.Supervise.Failed f -> f.message
        | _ -> "completed")
  done;
  checki "one timeout counted per task" 1000
    ((Robust.Counters.snapshot ()).timeouts - before);
  let p = Par.Pool.create ~jobs:2 in
  Fun.protect
    ~finally:(fun () -> Par.Pool.shutdown p)
    (fun () ->
      checkb "a fresh pool still works" true
        (Par.Pool.parallel_map p (fun x -> x * x) [| 1; 2; 3; 4 |]
        = [| 1; 4; 9; 16 |]))

let test_deadline_restored () =
  let o = Robust.Supervise.run ~timeout:0.01 ~label:"runaway" run_forever in
  checkb "timed out" true (kind_of o = Some Robust.Fault.Timeout);
  checkb "deadline cleared" true (Sim.Machine.deadline () = infinity);
  (* longer than several fuel slices, so a deadline left behind would
     stop it at a checkpoint *)
  let d = counter 200_000 in
  let checksum () = (Sim.Machine.run_decoded d no_input).checksum in
  let expected = checksum () in
  let o = Robust.Supervise.run ~label:"after" checksum in
  checkb "untimed run completes" true (o.value = Some expected);
  let p = Par.Pool.create ~jobs:2 in
  Fun.protect
    ~finally:(fun () -> Par.Pool.shutdown p)
    (fun () ->
      let o =
        Robust.Supervise.run ~label:"after-pool" (fun () ->
            Par.Pool.parallel_map p (fun _ -> checksum ()) [| 1; 2; 3; 4 |])
      in
      checkb "pool workers complete" true
        (o.value = Some (Array.make 4 expected)))

(* Regression for the discarded-backtrace bug: the supervisor once
   re-raised a body's failure from another domain with a bare
   [raise], which started a fresh backtrace there — the frames of the
   code that actually failed were lost.  The fault's backtrace must
   name this file. *)
let test_worker_backtrace_preserved () =
  Printexc.record_backtrace true;
  (* non-tail recursion so the frames survive into the backtrace *)
  let rec deep_failing_helper n =
    if n = 0 then failwith "deep-failure"
    else 1 + deep_failing_helper (n - 1)
  in
  let o =
    Robust.Supervise.run ~timeout:5.0 ~label:"deep" (fun () ->
        Printexc.record_backtrace true;
        ignore (Sys.opaque_identity (deep_failing_helper 5)))
  in
  match o.status with
  | Robust.Supervise.Failed f ->
    checkb "classified hard" true (f.kind = Robust.Fault.Hard);
    checkb "message kept" true (contains f.message "deep-failure");
    (match f.backtrace with
    | Some bt ->
      checkb "backtrace names the failing file" true (contains bt "test_robust")
    | None -> Alcotest.fail "expected a backtrace on the fault")
  | _ -> Alcotest.fail "expected Failed"

let test_inject_determinism () =
  Robust.Inject.reset ();
  Robust.Inject.set_seed (Some 7);
  let pattern () =
    List.init 400 (fun _ ->
        try
          Robust.Inject.raise_in_task ~label:"x";
          false
        with Robust.Inject.Chaos _ -> true)
  in
  let a = pattern () in
  Robust.Inject.reset ();
  let b = pattern () in
  checkb "same seed, same fault schedule" true (a = b);
  checkb "seeded injection fires" true (List.exists Fun.id a);
  checki "fired count matches pattern" (List.length (List.filter Fun.id a))
    (Robust.Inject.fired Robust.Inject.Task);
  (* force guarantees the next n consultations fire, regardless of
     seed *)
  Robust.Inject.set_seed None;
  Robust.Inject.reset ();
  checkb "disarmed by default" true
    (List.for_all not (List.init 50 (fun _ ->
         try Robust.Inject.raise_in_task ~label:"y"; false
         with Robust.Inject.Chaos _ -> true)));
  Robust.Inject.force Robust.Inject.Task 2;
  let fired =
    List.init 5 (fun _ ->
        try Robust.Inject.raise_in_task ~label:"z"; false
        with Robust.Inject.Chaos _ -> true)
  in
  checkb "exactly the forced two fire" true
    (fired = [ true; true; false; false; false ]);
  checki "fired counter" 2 (Robust.Inject.fired Robust.Inject.Task);
  Robust.Inject.reset ()

(* The robustness layer reports itself through the metrics registry
   alone: one forced task fault and one forced cache corruption under
   [Supervise.run] must show up as [inject.*], [cache.*] and [robust.*]
   counters, and [Counters.snapshot] must agree with the registry. *)
let test_registry_reports_robustness () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ballarus_registry_test_%d" (Unix.getpid ()))
  in
  let old_dir = Cache.Store.dir () and old_enabled = Cache.Store.enabled () in
  Cache.Store.set_dir dir;
  Cache.Store.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Robust.Inject.reset ();
      Cache.Store.clear ();
      (try Unix.rmdir dir with Unix.Unix_error _ | Sys_error _ -> ());
      Cache.Store.set_dir old_dir;
      Cache.Store.set_enabled old_enabled)
    (fun () ->
      Obs.Metrics.reset ();
      Robust.Inject.reset ();
      let compute () = "v" in
      ignore (Cache.Store.memo ~version:"t/registry" ~key:0 compute : string);
      Robust.Inject.force Robust.Inject.Cache_read 1;
      Robust.Inject.force Robust.Inject.Task 1;
      let o =
        Robust.Supervise.run
          ~sleep:(fun _ -> ())
          ~label:"registry"
          (fun () ->
            Robust.Inject.raise_in_task ~label:"registry";
            Cache.Store.memo ~version:"t/registry" ~key:0 compute)
      in
      checkb "recovered after one retry" true
        (o.status = Robust.Supervise.Recovered 1);
      checkb "value through" true (o.value = Some "v");
      let counters = Obs.Metrics.counters () in
      let count name = Option.value ~default:0 (List.assoc_opt name counters) in
      checki "inject.cache_read" 1 (count "inject.cache_read");
      checki "inject.task" 1 (count "inject.task");
      checki "cache.corrupt_quarantined" 1 (count "cache.corrupt_quarantined");
      checkb "robust.retries >= 1" true (count "robust.retries" >= 1);
      checki "fired reads the registry" 1
        (Robust.Inject.fired Robust.Inject.Task);
      checkb "snapshot equals the robust.* registry values" true
        (Robust.Counters.snapshot ()
        = {
            Robust.Counters.retries = count "robust.retries";
            timeouts = count "robust.timeouts";
            fuel_exhausted = count "robust.fuel_exhausted";
            task_failures = count "robust.task_failures";
          });
      Robust.Inject.reset ();
      checki "reset zeroes inject.task" 0
        (List.assoc "inject.task" (Obs.Metrics.counters ())))

let test_fuel_degradation () =
  (* the acceptance scenario: a deliberately non-terminating MiniC
     program fails with Fuel_exhausted — it does not hang — and the
     rest of the suite completes normally *)
  let infinite = Minic.Frontend.compile "int main() { while (1) { } return 0; }" in
  let empty = Sim.Dataset.make ~name:"empty" [||] in
  let bad =
    {
      Experiments.Driver.id = "runaway";
      title = "Runaway program";
      run =
        (fun ppf ->
          ignore (Sim.Machine.run ~max_instrs:200_000 infinite empty);
          Format.fprintf ppf "unreachable@.");
      quick_run = None;
    }
  in
  let good =
    {
      Experiments.Driver.id = "fine";
      title = "A well-behaved experiment";
      run = (fun ppf -> Format.fprintf ppf "fine-table-output@.");
      quick_run = None;
    }
  in
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  let s = Experiments.Driver.run_list ~warm:false [ bad; good ] ppf in
  Format.pp_print_flush ppf ();
  let out = Buffer.contents buf in
  checki "one failed" 1 s.failed;
  checki "one passed" 1 s.passed;
  (match List.assoc "runaway" s.results with
  | Experiments.Driver.Failed f ->
    checkb "classified fuel-exhausted" true
      (f.kind = Robust.Fault.Fuel_exhausted)
  | _ -> Alcotest.fail "expected the runaway experiment to fail");
  checkb "failure banner printed" true (contains out "FAILED");
  checkb "suite continued past the failure" true
    (contains out "fine-table-output");
  checki "degraded exit code" 3 (Experiments.Driver.exit_code s);
  (* summary report counts both *)
  let sbuf = Buffer.create 128 in
  let sppf = Format.formatter_of_buffer sbuf in
  Experiments.Driver.pp_summary sppf s;
  Format.pp_print_flush sppf ();
  checkb "summary mentions the failure" true
    (contains (Buffer.contents sbuf) "runaway")

let () =
  Alcotest.run "robust"
    [
      ( "fault",
        [
          Alcotest.test_case "taxonomy" `Quick test_taxonomy;
        ] );
      ( "backoff",
        [
          Alcotest.test_case "seeded determinism" `Quick
            test_backoff_determinism;
          Alcotest.test_case "only transient retried" `Quick
            test_retry_only_transient;
          QCheck_alcotest.to_alcotest prop_backoff_cap;
        ] );
      ( "supervise",
        [
          Alcotest.test_case "outcomes" `Quick test_supervise_outcomes;
          Alcotest.test_case "timeout" `Quick test_timeout;
          Alcotest.test_case "late return is a timeout" `Quick
            test_late_return;
          Alcotest.test_case "1000 timeouts leave the pool usable" `Quick
            test_many_timeouts;
          Alcotest.test_case "deadline restored after a timeout" `Quick
            test_deadline_restored;
          Alcotest.test_case "worker backtrace preserved" `Quick
            test_worker_backtrace_preserved;
        ] );
      ( "inject",
        [
          Alcotest.test_case "determinism and force" `Quick
            test_inject_determinism;
          Alcotest.test_case "registry reports the robustness layer" `Quick
            test_registry_reports_robustness;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "fuel exhaustion degrades gracefully" `Quick
            test_fuel_degradation;
        ] );
    ]
