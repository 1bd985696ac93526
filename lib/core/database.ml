type branch = {
  proc : int;
  block : int;
  pc : int;
  taken_dst : int;
  fall_dst : int;
  cls : Classify.cls;
  taken_count : int;
  fall_count : int;
  heur : bool option array;
  loop_pred : bool;
  rand_pred : bool;
  backward : bool;
}

type t = {
  program : Mips.Program.t;
  analyses : Cfg.Analysis.t array;
  branches : branch array;
  seed : int;
}

(* A reproducible per-branch coin. *)
let rand_bit ~seed ~proc ~pc =
  let z = (seed * 0x9E3779B9) + (proc * 65599) + pc + 0x1234567 in
  Sim.Dataset.mix z land 1 = 1

let make ?(seed = 42) program analyses ~taken ~fall =
  let branches = ref [] in
  Array.iteri
    (fun pidx (a : Cfg.Analysis.t) ->
      let g = a.graph in
      for b = 0 to g.nblocks - 1 do
        match Cfg.Graph.branch_edges g b with
        | None -> ()
        | Some (te, fe) ->
          let pc = g.last.(b) in
          let taken_dst = te.dst and fall_dst = fe.dst in
          let cls = Classify.classify a ~block:b ~taken:taken_dst ~fall:fall_dst in
          let heur =
            Array.map
              (fun h ->
                Heuristic.apply h a ~block:b ~taken:taken_dst ~fall:fall_dst)
              (Array.of_list Heuristic.all)
          in
          let br =
            {
              proc = pidx;
              block = b;
              pc;
              taken_dst;
              fall_dst;
              cls;
              taken_count = taken.(pidx).(pc);
              fall_count = fall.(pidx).(pc);
              heur;
              loop_pred =
                Classify.loop_predict a ~block:b ~taken:taken_dst ~fall:fall_dst;
              rand_pred = rand_bit ~seed ~proc:pidx ~pc;
              backward = Classify.is_backward g ~block:b ~taken:taken_dst;
            }
          in
          branches := br :: !branches
      done)
    analyses;
  { program; analyses; branches = Array.of_list (List.rev !branches); seed }

let exec br = br.taken_count + br.fall_count
let misses br pred = if pred then br.fall_count else br.taken_count
let perfect_misses br = min br.taken_count br.fall_count

let loop_branches t =
  List.filter
    (fun b -> b.cls = Classify.Loop_branch)
    (Array.to_list t.branches)

let non_loop_branches t =
  List.filter
    (fun b -> b.cls = Classify.Non_loop_branch)
    (Array.to_list t.branches)
