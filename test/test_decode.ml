(* Differential tests for the pre-decoded simulator: on every
   workload/dataset pair and across a large batch of fuzz-generated
   programs, the decoded fast path must produce byte-identical
   statistics and edge profiles to the legacy variant-dispatch
   interpreter. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let same_profile where (d : Sim.Profile.t) (l : Sim.Profile.t) =
  checki (where ^ ": instr_count") l.stats.instr_count d.stats.instr_count;
  checki (where ^ ": checksum") l.stats.checksum d.stats.checksum;
  checki (where ^ ": ints_read") l.stats.ints_read d.stats.ints_read;
  checki (where ^ ": floats_read") l.stats.floats_read d.stats.floats_read;
  checkb (where ^ ": taken edge counts") true (l.taken = d.taken);
  checkb (where ^ ": fall edge counts") true (l.fall = d.fall)

(* every workload, every dataset: decode once, profile on the decoded
   path and on the legacy path, and demand identical observables *)
let test_workload_registry_differential () =
  List.iter
    (fun (wl : Workloads.Workload.t) ->
      let prog = Workloads.Workload.compile wl in
      let decoded = Sim.Decode.of_program prog in
      List.iter
        (fun ds ->
          let where =
            Printf.sprintf "%s/%s" wl.name (ds.Sim.Dataset.name)
          in
          let d = Sim.Profile.run ~decoded prog ds in
          let l = Sim.Profile.run_legacy prog ds in
          same_profile where d l)
        wl.datasets)
    Workloads.Registry.all

(* the explicit [decoded] argument must agree with the implicit
   decode-on-demand path *)
let test_decode_on_demand_agrees () =
  let wl = Workloads.Registry.find "gcc" in
  let prog = Workloads.Workload.compile wl in
  let ds = Workloads.Workload.primary_dataset wl in
  let decoded = Sim.Decode.of_program prog in
  let a = Sim.Profile.run ~decoded prog ds in
  let b = Sim.Profile.run prog ds in
  same_profile "gcc explicit-vs-implicit decode" a b

(* 100+ seeded generator programs, mixed sizes: checksums, instruction
   counts and edge profiles must match pairwise.  Faults (none are
   expected from the generator) must agree byte-for-byte. *)
let test_fuzzed_programs_differential () =
  let dataset = Sim.Dataset.make ~name:"fuzz" [||] in
  let cases = 120 in
  for i = 0 to cases - 1 do
    let cs = Fuzz.Gen.case_seed ~seed:1993 ~index:i in
    let size = 8 + (i mod 13) in
    let src = Fuzz.Gen.to_source (Fuzz.Gen.generate ~seed:cs ~size) in
    match Minic.Frontend.compile src with
    | exception Minic.Frontend.Error msg ->
      Alcotest.failf "case %d: frontend rejected generated program: %s" i msg
    | prog -> (
      match Sim.Profile.run prog dataset with
      | exception Sim.Machine.Fault msg -> (
        match Sim.Profile.run_legacy prog dataset with
        | exception Sim.Machine.Fault lmsg ->
          Alcotest.(check string)
            (Printf.sprintf "case %d: fault messages" i)
            lmsg msg
        | _ ->
          Alcotest.failf "case %d: decoded faulted (%s), legacy completed" i
            msg)
      | d -> (
        match Sim.Profile.run_legacy prog dataset with
        | exception Sim.Machine.Fault msg ->
          Alcotest.failf "case %d: legacy faulted (%s), decoded completed" i
            msg
        | l -> same_profile (Printf.sprintf "case %d" i) d l))
  done

(* scratch-memory reuse must leave no residue between runs: the same
   decoded program profiled twice back-to-back (second run reusing the
   first run's parked arrays) yields identical results *)
let test_scratch_reuse_is_clean () =
  let wl = Workloads.Registry.find "xlisp" in
  let prog = Workloads.Workload.compile wl in
  let decoded = Sim.Decode.of_program prog in
  List.iter
    (fun ds ->
      let a = Sim.Profile.run ~decoded prog ds in
      let b = Sim.Profile.run ~decoded prog ds in
      same_profile
        (Printf.sprintf "xlisp/%s rerun" (ds.Sim.Dataset.name))
        a b)
    wl.datasets

(* a decoding of another program must be refused, also under
   [-noassert]: it would silently simulate the wrong program *)
let rejects_foreign_decoding run () =
  let grep = Workloads.Registry.find "grep" in
  let compress = Workloads.Registry.find "compress" in
  let decoded = Sim.Decode.of_program (Workloads.Workload.compile compress) in
  let ds = Workloads.Workload.primary_dataset grep in
  match run ~decoded (Workloads.Workload.compile grep) ds with
  | () -> Alcotest.fail "accepted another program's decoding"
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "decode"
    [
      ( "differential",
        [
          Alcotest.test_case "workload registry decoded = legacy" `Slow
            test_workload_registry_differential;
          Alcotest.test_case "explicit decode = implicit decode" `Quick
            test_decode_on_demand_agrees;
          Alcotest.test_case "120 fuzzed programs decoded = legacy" `Slow
            test_fuzzed_programs_differential;
          Alcotest.test_case "scratch reuse leaves no residue" `Quick
            test_scratch_reuse_is_clean;
          Alcotest.test_case "profile rejects a foreign decoding" `Quick
            (rejects_foreign_decoding (fun ~decoded p ds ->
                 ignore (Sim.Profile.run ~decoded p ds)));
          Alcotest.test_case "trace run rejects a foreign decoding" `Quick
            (rejects_foreign_decoding (fun ~decoded p ds ->
                 ignore (Sim.Trace_run.run ~decoded p ds [])));
        ] );
    ]
