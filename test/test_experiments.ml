(* Experiment-layer tests: statistics, table rendering, and the
   reproduction drivers (checked against the paper's qualitative
   claims, since absolute numbers depend on the synthetic suite). *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let null_formatter = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

(* ---- stats ---- *)

let test_stats () =
  checkb "mean" true (abs_float (Experiments.Stats.mean [ 1.; 2.; 3. ] -. 2.) < 1e-9);
  checkb "mean skips nan" true
    (abs_float (Experiments.Stats.mean [ 1.; Float.nan; 3. ] -. 2.) < 1e-9);
  checkb "mean empty is nan" true (Float.is_nan (Experiments.Stats.mean []));
  checkb "stddev" true
    (abs_float (Experiments.Stats.stddev [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ] -. 2.)
    < 1e-9);
  checkb "stddev singleton" true (Experiments.Stats.stddev [ 5. ] = 0.);
  let sorted = [| 1.; 2.; 3.; 4. |] in
  checkb "median" true
    (abs_float (Experiments.Stats.percentile sorted 0.5 -. 2.5) < 1e-9);
  checkb "p0" true (Experiments.Stats.percentile sorted 0. = 1.);
  checkb "p100" true (Experiments.Stats.percentile sorted 1. = 4.)

(* ---- text tables ---- *)

let test_texttab () =
  checks "pct" "22" (Experiments.Texttab.pct 0.224);
  checks "pct nan" "-" (Experiments.Texttab.pct Float.nan);
  checks "pct1" "22.4" (Experiments.Texttab.pct1 0.224);
  checks "ratio" "22/15" (Experiments.Texttab.ratio 0.224 0.151);
  let buf = Buffer.create 64 in
  let ppf = Format.formatter_of_buffer buf in
  Experiments.Texttab.render ppf ~header:[ "a"; "bb" ]
    [ [ "xxx"; "1" ]; [ "y" ] ];
  Format.pp_print_flush ppf ();
  let out = Buffer.contents buf in
  checkb "has header" true (String.length out > 0);
  (* all lines padded to equal width for full rows *)
  let lines = String.split_on_char '\n' out in
  checkb "four lines" true (List.length (List.filter (fun l -> l <> "") lines) = 4)

(* ---- drivers run and agree with the paper's qualitative claims ---- *)

let test_table_drivers_run () =
  (* smoke: every registered experiment driver renders without
     exception (the expensive subset experiment is capped) *)
  List.iter
    (fun (e : Experiments.Driver.experiment) ->
      match e.id with
      | "graph2" ->
        Experiments.Orderings.graph2_3_table4 ~max_trials:500 null_formatter
      | _ -> e.run null_formatter)
    Experiments.Driver.all

(* An experiment that overruns its [--timeout] degrades to a timeout
   banner and makes the suite exit 3, without hanging. *)
let test_timeout_banner () =
  let e = Option.get (Experiments.Driver.find "table1") in
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  let s =
    Experiments.Driver.run_list ~quick:true ~timeout:1e-6 ~warm:false [ e ] ppf
  in
  Format.pp_print_flush ppf ();
  let out = Buffer.contents buf in
  checkb "timeout banner" true
    (List.exists
       (String.starts_with ~prefix:"!! table1 FAILED [timeout]")
       (String.split_on_char '\n' out));
  checki "exit code" 3 (Experiments.Driver.exit_code s)

let load name = Experiments.Bench_run.load (Workloads.Registry.find name)

let all_branch_miss predictor r =
  Predict.Metrics.miss_rate predictor
    (Array.to_list (r : Experiments.Bench_run.t).db.branches)

let test_headline_claims () =
  let rs = Experiments.Bench_run.load_all () in
  let order = Predict.Combined.paper_order in
  let mean f = Experiments.Stats.mean (List.map f rs) in
  let perfect =
    mean (fun r -> Predict.Metrics.perfect_rate (Array.to_list r.db.branches))
  in
  let heur = mean (all_branch_miss (Predict.Combined.predict order)) in
  let looprand = mean (all_branch_miss Predict.Combined.loop_rand_predict) in
  (* perfect static prediction reaches ~10% miss on all branches *)
  checkb "perfect under 15%" true (perfect < 0.15);
  (* the combined heuristic lands between perfect and Loop+Rand *)
  checkb "heuristic beats Loop+Rand" true (heur < looprand);
  checkb "heuristic under 30%" true (heur < 0.30);
  checkb "heuristic above perfect" true (heur > perfect)

let test_non_loop_claims () =
  let rs = Experiments.Bench_run.load_all () in
  let mean f = Experiments.Stats.mean (List.map f rs) in
  let nl r = Predict.Database.non_loop_branches r.Experiments.Bench_run.db in
  let rnd =
    mean (fun r ->
        Predict.Metrics.miss_rate (fun b -> b.Predict.Database.rand_pred) (nl r))
  in
  let tgt = mean (fun r -> Predict.Metrics.miss_rate (fun _ -> true) (nl r)) in
  let heur =
    mean (fun r ->
        Predict.Metrics.miss_rate
          (fun b ->
            fst (Predict.Combined.predict_non_loop Predict.Combined.paper_order b))
          (nl r))
  in
  (* naive strategies hover near 50% on non-loop branches *)
  checkb "random near 50%" true (rnd > 0.35 && rnd < 0.65);
  checkb "target near 50%" true (tgt > 0.30 && tgt < 0.65);
  (* the heuristics do far better *)
  checkb "heuristic well below naive" true (heur < rnd -. 0.10)

let test_tomcatv_story () =
  (* Section 4's flagship anecdote: on tomcatv the Guard heuristic
     mispredicts the two hot max-update branches and the Store
     heuristic predicts them perfectly *)
  let r = load "tomcatv" in
  let nl = Predict.Database.non_loop_branches r.db in
  let guard b = b.Predict.Database.heur.(Predict.Heuristic.to_int Guard) in
  let store b = b.Predict.Database.heur.(Predict.Heuristic.to_int Store) in
  let guard_miss = Predict.Metrics.miss_rate_covered guard nl in
  let store_miss = Predict.Metrics.miss_rate_covered store nl in
  checkb "guard coverage high" true (Predict.Metrics.coverage guard nl > 0.9);
  checkb "guard miss extreme" true (guard_miss > 0.9);
  checkb "store miss tiny" true (store_miss < 0.1)

let test_loop_predictor_quality () =
  (* the loop predictor approaches perfect on loop branches for
     loop-dominated benchmarks *)
  List.iter
    (fun name ->
      let r = load name in
      let lp = Predict.Database.loop_branches r.db in
      let miss =
        Predict.Metrics.miss_rate (fun b -> b.Predict.Database.loop_pred) lp
      in
      checkb (name ^ " loop miss under 15%") true (miss < 0.15))
    [ "matrix300"; "tomcatv"; "dnasa7"; "grep" ]

let test_forward_loop_branches_exist () =
  (* Section 3: many loop branches are NOT backward branches — the
     rotated-loop guard/exit structure guarantees it in this suite *)
  let rs = Experiments.Bench_run.load_all () in
  let some_forward =
    List.exists
      (fun (r : Experiments.Bench_run.t) ->
        List.exists
          (fun (b : Predict.Database.branch) -> not b.backward)
          (Predict.Database.loop_branches r.db))
      rs
  in
  checkb "forward loop branches exist" true some_forward

let test_graph13_stability () =
  (* Section 7: heuristic predictions are identical across datasets,
     and the miss rate is reasonably stable for the pointer-heavy
     benchmarks the paper calls out *)
  List.iter
    (fun name ->
      let r = load name in
      checkb (name ^ " primary dataset reuses the loaded database") true
        (Experiments.Bench_run.db_for r (Workloads.Workload.primary_dataset r.wl)
        == r.db);
      let order = Predict.Combined.paper_order in
      let rates =
        List.map
          (fun ds ->
            let db = Experiments.Bench_run.db_for r ds in
            Predict.Metrics.miss_rate (Predict.Combined.predict order)
              (Array.to_list db.branches))
          r.wl.datasets
      in
      match rates with
      | first :: rest ->
        List.iter
          (fun rate ->
            checkb (name ^ " stable across datasets") true
              (abs_float (rate -. first) < 0.15))
          rest
      | [] -> Alcotest.fail "no datasets")
    [ "gcc"; "xlisp"; "compress"; "doduc" ]

let test_miss_matrix_bounds () =
  let m, rs = Experiments.Orderings.miss_matrix_cached () in
  checki "22 benchmarks (matrix300 dropped)" 22 (Array.length m);
  checki "rows match" (List.length rs) (Array.length m);
  Array.iter
    (fun row ->
      checki "5040 orders" 5040 (Array.length row);
      Array.iter
        (fun v -> checkb "rate in [0,1]" true (v >= 0. && v <= 1.))
        row)
    m

let test_best_order_at_least_as_good_as_paper () =
  let m, _ = Experiments.Orderings.miss_matrix_cached () in
  let _, best_v = Predict.Ordering.best_order m in
  let paper_idx = Predict.Ordering.index_of_order Predict.Combined.paper_order in
  let nb = Array.length m in
  let paper_avg =
    Array.fold_left (fun acc row -> acc +. row.(paper_idx)) 0. m
    /. float_of_int nb
  in
  checkb "best <= paper order" true (best_v <= paper_avg +. 1e-12)

let test_trace_ipbc_relationships () =
  (* run the trace analysis on one hard benchmark and check the
     Section 6 relationships *)
  let r = load "gcc" in
  let results =
    Sim.Trace_run.run r.prog
      (Workloads.Workload.primary_dataset r.wl)
      (Experiments.Traces.predictors_for r)
  in
  let dist label =
    Tracing.Ipbc.of_result
      (List.find (fun (x : Sim.Trace_run.result) -> x.label = label) results)
  in
  let perfect = dist "Perfect" in
  let heur = dist "Heuristic" in
  let lr = dist "Loop+Rand" in
  checkb "perfect misses least" true
    (perfect.miss_rate <= heur.miss_rate && heur.miss_rate <= lr.miss_rate);
  checkb "perfect ipbc longest" true
    (perfect.ipbc >= heur.ipbc && heur.ipbc >= lr.ipbc);
  checkb "dividing length ordered" true
    (Tracing.Ipbc.dividing_length perfect >= Tracing.Ipbc.dividing_length lr)

let () =
  Alcotest.run "experiments"
    [
      ( "stats",
        [
          Alcotest.test_case "basics" `Quick test_stats;
          Alcotest.test_case "texttab" `Quick test_texttab;
        ] );
      ( "drivers",
        [
          Alcotest.test_case "all drivers run" `Slow test_table_drivers_run;
          Alcotest.test_case "timeout banner" `Quick test_timeout_banner;
        ] );
      ( "paper claims",
        [
          Alcotest.test_case "headline" `Quick test_headline_claims;
          Alcotest.test_case "non-loop" `Quick test_non_loop_claims;
          Alcotest.test_case "tomcatv" `Quick test_tomcatv_story;
          Alcotest.test_case "loop predictor" `Quick test_loop_predictor_quality;
          Alcotest.test_case "forward loop branches" `Quick
            test_forward_loop_branches_exist;
          Alcotest.test_case "dataset stability" `Slow test_graph13_stability;
        ] );
      ( "orderings",
        [
          Alcotest.test_case "miss matrix" `Slow test_miss_matrix_bounds;
          Alcotest.test_case "best vs paper" `Slow
            test_best_order_at_least_as_good_as_paper;
        ] );
      ( "traces",
        [
          Alcotest.test_case "ipbc relationships" `Slow
            test_trace_ipbc_relationships;
        ] );
    ]
