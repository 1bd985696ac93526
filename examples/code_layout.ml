(* Prediction-guided code layout: the paper's motivating application.
   Architectures that predict forward-not-taken / backward-taken rely
   on the compiler to arrange code so the common path falls through.
   This example lays out every workload along Ball-Larus-predicted
   traces and measures how many conditional branches are taken before
   and after (semantics — checksums — and the number of conditional
   branches executed must be unchanged).

   Run with:  dune exec examples/code_layout.exe [workload] *)

let run_one (wl : Workloads.Workload.t) =
  let r = Experiments.Bench_run.load wl in
  let laid_out =
    Predict.Layout.guided r.db
      ~predictor:(Predict.Combined.predict Predict.Combined.paper_order)
  in
  (* "before" is the edge profile [load] already ran on the primary
     dataset; only the laid-out program is simulated *)
  let taken0 = Sim.Profile.taken_execs r.profile
  and execs0 = Sim.Profile.branch_execs r.profile in
  let ((taken1, execs1, _) as after) =
    Predict.Layout.taken_transfers laid_out
      (Workloads.Workload.primary_dataset wl)
  in
  Predict.Layout.check_run ~name:wl.name r.profile after;
  let pct t e = 100. *. float_of_int t /. float_of_int (max 1 e) in
  Printf.printf "%-10s taken %5.1f%% -> %5.1f%%   (branches %d, checksum ok)\n"
    wl.name (pct taken0 execs0) (pct taken1 execs1) execs0;
  (pct taken0 execs0, pct taken1 execs1)

let () =
  Printf.printf
    "conditional branches taken before/after prediction-guided layout\n\n";
  let targets =
    if Array.length Sys.argv > 1 then
      [ Workloads.Registry.find Sys.argv.(1) ]
    else Workloads.Registry.all
  in
  let results = List.map run_one targets in
  let mean f = List.fold_left ( +. ) 0. (List.map f results)
               /. float_of_int (List.length results) in
  Printf.printf "\nMEAN       taken %5.1f%% -> %5.1f%%\n" (mean fst) (mean snd)
