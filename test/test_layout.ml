(* Tests for the prediction-guided code layout pass: condition
   inversion, semantic preservation, and effectiveness. *)

module I = Mips.Insn
module R = Mips.Reg

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let t0 = R.t 0
let t1 = R.t 1

let test_invert_forms () =
  checkb "beq" true (Predict.Layout.invert (I.Beq (t0, t1, 3)) = I.Bne (t0, t1, 3));
  checkb "bne" true (Predict.Layout.invert (I.Bne (t0, t1, 3)) = I.Beq (t0, t1, 3));
  checkb "bltz" true
    (Predict.Layout.invert (I.Bz (I.Ltz, t0, 3)) = I.Bz (I.Gez, t0, 3));
  checkb "blez" true
    (Predict.Layout.invert (I.Bz (I.Lez, t0, 3)) = I.Bz (I.Gtz, t0, 3));
  checkb "bc1t" true (Predict.Layout.invert (I.Bfp (true, 3)) = I.Bfp (false, 3));
  Alcotest.check_raises "non-branch"
    (Invalid_argument "Layout.invert: not a conditional branch") (fun () ->
      ignore (Predict.Layout.invert I.Ret))

let test_invert_involution () =
  let branches =
    [
      I.Beq (t0, t1, 7); I.Bne (t0, t1, 7); I.Bz (I.Ltz, t0, 7);
      I.Bz (I.Lez, t0, 7); I.Bz (I.Gtz, t0, 7); I.Bz (I.Gez, t0, 7);
      I.Bfp (true, 7); I.Bfp (false, 7);
    ]
  in
  List.iter
    (fun b ->
      checkb "involution" true
        (Predict.Layout.invert (Predict.Layout.invert b) = b))
    branches

(* Inverted branches compute the complementary condition. *)
let prop_invert_semantics =
  QCheck.Test.make ~name:"inverted branch takes iff original does not"
    ~count:200
    QCheck.(make Gen.(pair (int_range (-20) 20) (int_range (-20) 20)))
    (fun (a, b) ->
      let eval (ins : int I.t) =
        match ins with
        | I.Beq _ -> a = b
        | I.Bne _ -> a <> b
        | I.Bz (I.Ltz, _, _) -> a < 0
        | I.Bz (I.Lez, _, _) -> a <= 0
        | I.Bz (I.Gtz, _, _) -> a > 0
        | I.Bz (I.Gez, _, _) -> a >= 0
        | _ -> false
      in
      List.for_all
        (fun ins -> eval (Predict.Layout.invert ins) = not (eval ins))
        [
          I.Beq (t0, t1, 0); I.Bne (t0, t1, 0); I.Bz (I.Ltz, t0, 0);
          I.Bz (I.Lez, t0, 0); I.Bz (I.Gtz, t0, 0); I.Bz (I.Gez, t0, 0);
        ])


(* Layout must preserve semantics on arbitrary programs, not just the
   workloads: a generated family of branchy programs, laid out under
   both a perfect and an adversarial predictor. *)
let prop_layout_preserves_generated =
  QCheck.Test.make ~name:"layout preserves semantics on generated programs"
    ~count:25
    QCheck.(make Gen.(pair (int_range 0 1000) (int_range 2 30)))
    (fun (seed, bound) ->
      let src =
        Printf.sprintf
          {|
int acc = 0;
void visit(int x) {
  if (x %% 3 == %d) {
    acc += x;
  } else {
    if (x > %d) {
      acc -= x / 2;
    }
  }
}
int main() {
  int i;
  for (i = 0; i < %d; i++) {
    switch ((i * %d) %% 4) {
      case 0: visit(i); break;
      case 1: acc ^= i; break;
      case 2: while (acc > %d) { acc -= 7; } break;
      default: acc += 3;
    }
  }
  print(acc);
  return 0;
}
|}
          (seed mod 3) (bound * 2) (20 + (seed mod 50)) (1 + (seed mod 5))
          bound
      in
      let prog = Minic.Frontend.compile src in
      let d = Sim.Dataset.make ~name:"t" [||] in
      let base = (Sim.Machine.run prog d).checksum in
      let analyses = Cfg.Analysis.of_program prog in
      let profile = Sim.Profile.run prog d in
      let db =
        Predict.Database.make prog analyses ~taken:profile.taken
          ~fall:profile.fall
      in
      let laid_checksum predictor =
        (Sim.Machine.run (Predict.Layout.guided db ~predictor) d).checksum
      in
      laid_checksum Predict.Combined.perfect_predict = base
      && laid_checksum (fun b -> not (Predict.Combined.perfect_predict b))
         = base
      && laid_checksum (fun _ -> true) = base)

let workloads_under_test = [ "xlisp"; "grep"; "tomcatv"; "gcc"; "compress" ]

let test_layout_preserves_semantics () =
  List.iter
    (fun name ->
      let r = Experiments.Bench_run.load (Workloads.Registry.find name) in
      let ds = Workloads.Workload.primary_dataset r.wl in
      let base = Sim.Machine.run r.prog ds in
      List.iter
        (fun (label, predictor) ->
          let laid = Predict.Layout.guided r.db ~predictor in
          let after = Sim.Machine.run laid ds in
          checki
            (Printf.sprintf "%s/%s checksum preserved" name label)
            base.checksum after.checksum)
        [
          ("heuristic", Predict.Combined.predict Predict.Combined.paper_order);
          ("perfect", Predict.Combined.perfect_predict);
          ("anti", fun br -> not (Predict.Combined.perfect_predict br));
          ("all-taken", fun _ -> true);
        ])
    workloads_under_test

let test_layout_reduces_taken () =
  List.iter
    (fun name ->
      let r = Experiments.Bench_run.load (Workloads.Registry.find name) in
      let ds = Workloads.Workload.primary_dataset r.wl in
      let taken0, execs0, stats0 = Predict.Layout.taken_transfers r.prog ds in
      (* the primary edge profile holds the same numbers, which is why
         the layout ablation need not simulate the original program *)
      checki (name ^ " taken = profile taken")
        (Sim.Profile.taken_execs r.profile) taken0;
      checki (name ^ " executions = profile executions")
        (Sim.Profile.branch_execs r.profile) execs0;
      checki (name ^ " checksum = profile checksum")
        r.profile.stats.checksum stats0.checksum;
      let laid =
        Predict.Layout.guided r.db ~predictor:Predict.Combined.perfect_predict
      in
      let taken1, execs1, _ = Predict.Layout.taken_transfers laid ds in
      checki (name ^ " same branch executions") execs0 execs1;
      checkb
        (Printf.sprintf "%s taken reduced (%d -> %d)" name taken0 taken1)
        true (taken1 <= taken0))
    workloads_under_test

let test_layout_perfect_at_most_miss_rate () =
  (* under perfect-prediction layout, the only taken conditional
     branches are mispredictions or trace restarts; the taken rate
     must drop to (roughly) the perfect miss rate plus loop backedge
     re-entries.  We check the weaker bound: taken rate after layout
     with perfect predictions is below 60% for every workload. *)
  List.iter
    (fun name ->
      let r = Experiments.Bench_run.load (Workloads.Registry.find name) in
      let ds = Workloads.Workload.primary_dataset r.wl in
      let laid =
        Predict.Layout.guided r.db ~predictor:Predict.Combined.perfect_predict
      in
      let taken, execs, _ = Predict.Layout.taken_transfers laid ds in
      checkb (name ^ " post-layout taken under 60%") true
        (float_of_int taken /. float_of_int (max 1 execs) < 0.6))
    workloads_under_test

let test_check_run () =
  (* the laid-out run is accepted only when its checksum and its
     conditional branch count both match the original's profile *)
  let r = Experiments.Bench_run.load (Workloads.Registry.find "grep") in
  let ds = Workloads.Workload.primary_dataset r.wl in
  let taken, execs, stats =
    Predict.Layout.taken_transfers
      (Predict.Layout.guided r.db
         ~predictor:(Predict.Combined.predict Predict.Combined.paper_order))
      ds
  in
  Predict.Layout.check_run ~name:"grep" r.profile (taken, execs, stats);
  let rejects label result =
    checkb label true
      (match Predict.Layout.check_run ~name:"grep" r.profile result with
      | () -> false
      | exception Failure _ -> true)
  in
  rejects "checksum mismatch"
    (taken, execs, { stats with checksum = stats.checksum + 1 });
  rejects "branch count mismatch" (taken, execs + 1, stats)

let test_layout_idempotent_code_size () =
  (* laying out twice must not blow up the code *)
  let r = Experiments.Bench_run.load (Workloads.Registry.find "grep") in
  let once =
    Predict.Layout.guided r.db ~predictor:Predict.Combined.perfect_predict
  in
  let size0 = Mips.Program.code_size r.prog in
  let size1 = Mips.Program.code_size once in
  checkb "code growth bounded" true (size1 < size0 + (size0 / 4) + 16)

(* ---- corner-case CFGs: single block, self-loop, all-backedge ---- *)

(* hand-assemble a one-procedure program from (label, insn) items *)
let asm_proc items =
  let prog =
    Mips.Program.make ~entry:"p"
      [ ("p", List.concat_map (fun (l, i) -> [ Mips.Asm.Lab l; Mips.Asm.Ins i ]) items) ]
  in
  prog.procs.(0)

let test_layout_single_block () =
  (* a function that is one block: layout must be the identity up to
     relabeling, and never consult the predictor *)
  let p = asm_proc [ ("B0", I.Ret) ] in
  let q =
    Predict.Layout.reorder_proc p ~predict:(fun ~block:_ ->
        Alcotest.fail "predictor consulted for a branchless proc")
  in
  checki "same length" (Array.length p.body) (Array.length q.body);
  checkb "still returns" true (Array.exists (fun i -> i = I.Ret) q.body)

let test_layout_self_loop () =
  (* B0 branches to itself then falls to a return: the self edge must
     survive re-linearisation in either predicted direction *)
  List.iter
    (fun dir ->
      let p = asm_proc [ ("B0", I.Beq (t0, t1, "B0")); ("B1", I.Ret) ] in
      let q = Predict.Layout.reorder_proc p ~predict:(fun ~block:_ -> dir) in
      let g = Cfg.Graph.build q in
      let self_edge =
        Array.exists
          (fun b ->
            List.exists
              (fun (e : Cfg.Graph.edge) -> e.src = b && e.dst = b)
              g.succs.(b))
          (Array.init g.nblocks Fun.id)
      in
      checkb "self edge survives" true self_edge;
      checkb "a return survives" true
        (Array.exists (fun i -> i = I.Ret) q.body))
    [ true; false ]

(* entry jumps into B2, B2 jumps to B1, and B1's branch goes back to
   B0 (taken) or B2 (fall).  Both of B1's successors dominate it, so
   both outgoing edges are backedges. *)
let both_backedges_proc () =
  asm_proc
    [ ("B0", I.J "B2"); ("B1", I.Beq (t0, t1, "B0")); ("B2", I.J "B1") ]

let test_both_successors_backedges () =
  let p = both_backedges_proc () in
  let analysis =
    (Cfg.Analysis.of_program
       (Mips.Program.make ~entry:"p"
          [ ("p",
             [ Mips.Asm.Lab "B0"; Mips.Asm.Ins (I.J "B2");
               Mips.Asm.Lab "B1"; Mips.Asm.Ins (I.Beq (t0, t1, "B0"));
               Mips.Asm.Lab "B2"; Mips.Asm.Ins (I.J "B1") ])
          ])).(0)
  in
  let g = analysis.graph in
  (* find the conditional branch and its successors *)
  let rec find_branch b =
    if b >= g.Cfg.Graph.nblocks then Alcotest.fail "no conditional branch"
    else
      match Cfg.Graph.branch_edges g b with
      | Some (t, f) -> (t.Cfg.Graph.src, t.dst, f.dst)
      | None -> find_branch (b + 1)
  in
  let src, tdst, fdst = find_branch 0 in
  checkb "taken edge is a backedge" true
    (Cfg.Loops.is_backedge analysis.loops ~src ~dst:tdst);
  checkb "fall edge is a backedge" true
    (Cfg.Loops.is_backedge analysis.loops ~src ~dst:fdst);
  checkb "classified as loop branch" true
    (Predict.Classify.classify analysis ~block:src ~taken:tdst ~fall:fdst
    = Predict.Classify.Loop_branch);
  (* the loop predictor must still commit to a direction, and the
     extended heuristics must not crash on this shape *)
  ignore
    (Predict.Classify.loop_predict analysis ~block:src ~taken:tdst ~fall:fdst);
  List.iter
    (fun h ->
      ignore
        (Predict.Heuristic_ext.apply h analysis ~block:src ~taken:tdst
           ~fall:fdst))
    Predict.Heuristic_ext.all;
  (* layout may merge blocks (straightening jumps) but the
     conditional branch and both of its outgoing edges must survive *)
  let q = Predict.Layout.reorder_proc p ~predict:(fun ~block:_ -> true) in
  let g' = Cfg.Graph.build q in
  let branch_survives =
    Array.exists
      (fun b -> Cfg.Graph.branch_edges g' b <> None)
      (Array.init g'.nblocks Fun.id)
  in
  checkb "branch survives layout" true branch_survives

let test_heuristic_ext_single_block () =
  (* extended heuristics on a branchless single-block proc: nothing to
     ask, but analysis construction must still work *)
  let analysis =
    (Cfg.Analysis.of_program
       (Mips.Program.make ~entry:"p" [ ("p", [ Mips.Asm.Ins I.Ret ]) ])).(0)
  in
  checki "one block" 1 analysis.graph.nblocks;
  checkb "no branch edges" true
    (Cfg.Graph.branch_edges analysis.graph 0 = None)

let () =
  Alcotest.run "layout"
    [
      ( "invert",
        [
          Alcotest.test_case "forms" `Quick test_invert_forms;
          Alcotest.test_case "involution" `Quick test_invert_involution;
          QCheck_alcotest.to_alcotest prop_invert_semantics;
          QCheck_alcotest.to_alcotest prop_layout_preserves_generated;
        ] );
      ( "reorder",
        [
          Alcotest.test_case "preserves semantics" `Slow
            test_layout_preserves_semantics;
          Alcotest.test_case "reduces taken" `Slow test_layout_reduces_taken;
          Alcotest.test_case "perfect bound" `Slow
            test_layout_perfect_at_most_miss_rate;
          Alcotest.test_case "check run" `Quick test_check_run;
          Alcotest.test_case "code size" `Quick test_layout_idempotent_code_size;
        ] );
      ( "corner cases",
        [
          Alcotest.test_case "single block" `Quick test_layout_single_block;
          Alcotest.test_case "self loop" `Quick test_layout_self_loop;
          Alcotest.test_case "both successors backedges" `Quick
            test_both_successors_backedges;
          Alcotest.test_case "ext on single block" `Quick
            test_heuristic_ext_single_block;
        ] );
    ]
