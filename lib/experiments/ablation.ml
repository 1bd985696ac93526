module D = Predict.Database
module M = Predict.Metrics

let btfn ppf =
  Format.fprintf ppf
    "Ablation: natural-loop classification vs backward-taken/forward-@.";
  Format.fprintf ppf "not-taken (BTFN), all branches@.@.";
  let order = Predict.Combined.paper_order in
  let rates =
    List.map
      (fun (r : Bench_run.t) ->
        let branches = Array.to_list r.db.branches in
        let btfn_pred (b : D.branch) = b.D.backward in
        ( r.wl.name,
          [
            M.miss_rate btfn_pred branches;
            M.miss_rate (Predict.Combined.predict order) branches;
            M.perfect_rate branches;
          ] ))
      (Bench_run.load_all ())
  in
  let col i = Stats.mean (List.map (fun (_, xs) -> List.nth xs i) rates) in
  Texttab.render ppf
    ~header:[ "Program"; "BTFN"; "Loop+Heuristics"; "Perfect" ]
    (List.map (fun (name, xs) -> name :: List.map Texttab.pct xs) rates
    @ [ "MEAN" :: List.init 3 (fun i -> Texttab.pct (col i)) ])

let eval_order_avg order =
  let m, rs = Orderings.miss_matrix_cached () in
  ignore rs;
  let idx = Predict.Ordering.index_of_order order in
  let nb = Array.length m in
  let s = ref 0. in
  for b = 0 to nb - 1 do
    s := !s +. m.(b).(idx)
  done;
  !s /. float_of_int nb

let pairwise ppf =
  Format.fprintf ppf
    "Ablation: ordering strategies (avg non-loop miss, matrix300 excl.)@.@.";
  let m, rs = Orderings.miss_matrix_cached () in
  let dbs = Array.of_list (List.map (fun (r : Bench_run.t) -> r.db) rs) in
  let pw = Predict.Ordering.pairwise_order dbs in
  let best_idx, best_v = Predict.Ordering.best_order m in
  let name o = String.concat " " (List.map Predict.Heuristic.name o) in
  Texttab.render ppf
    ~header:[ "strategy"; "avg miss %"; "order" ]
    [
      [
        "paper order";
        Texttab.pct1 (eval_order_avg Predict.Combined.paper_order);
        name Predict.Combined.paper_order;
      ];
      [ "pairwise (Copeland)"; Texttab.pct1 (eval_order_avg pw); name pw ];
      [
        "global best";
        Texttab.pct1 best_v;
        name (Predict.Ordering.order_of_index best_idx);
      ];
      [
        "table-3 order";
        Texttab.pct1 (eval_order_avg Predict.Heuristic.all);
        name Predict.Heuristic.all;
      ];
    ]

let seeds ppf =
  Format.fprintf ppf
    "Ablation: Default-coin seed sensitivity (avg all-branch miss)@.@.";
  let order = Predict.Combined.paper_order in
  let rows =
    List.map
      (fun seed ->
        let misses =
          List.map
            (fun (r : Bench_run.t) ->
              (* [~seed] recomputes the Default coin under this seed
                 without rebuilding the database. *)
              M.miss_rate
                (Predict.Combined.predict ~seed order)
                (Array.to_list r.db.branches))
            (Bench_run.load_all ())
        in
        let m, s = Stats.mean_std misses in
        [ string_of_int seed; Texttab.pct1 m; Texttab.pct1 s ])
      [ 1; 2; 3; 42; 1337 ]
  in
  Texttab.render ppf ~header:[ "seed"; "mean miss %"; "std" ] rows

let opcode_fusion ppf =
  Format.fprintf ppf
    "Ablation: Opcode-heuristic composition — coverage from integer@.";
  Format.fprintf ppf
    "zero-compare branches vs FP-equality branches (dynamic, non-loop)@.@.";
  let rows =
    List.map
      (fun (r : Bench_run.t) ->
        let nl = D.non_loop_branches r.db in
        let total = M.total_exec nl in
        let share p =
          if total = 0 then Float.nan
          else begin
            let e = M.total_exec (List.filter p nl) in
            float_of_int e /. float_of_int total
          end
        in
        let is_bz (b : D.branch) =
          match r.prog.procs.(b.proc).body.(b.pc) with
          | Mips.Insn.Bz _ -> true
          | _ -> false
        in
        let is_fp (b : D.branch) =
          match r.prog.procs.(b.proc).body.(b.pc) with
          | Mips.Insn.Bfp _ -> true
          | _ -> false
        in
        let opc (b : D.branch) =
          b.D.heur.(Predict.Heuristic.to_int Predict.Heuristic.Opcode) <> None
        in
        [
          r.wl.name;
          Texttab.pct (share (fun b -> opc b && is_bz b));
          Texttab.pct (share (fun b -> opc b && is_fp b));
          Texttab.pct (share opc);
        ])
      (Bench_run.load_all ())
  in
  Texttab.render ppf
    ~header:[ "Program"; "bltz-family"; "FP equality"; "total Opcode" ]
    rows

let profile_based ppf =
  Format.fprintf ppf
    "Ablation: profile-based vs program-based prediction (all branches,@.";
  Format.fprintf ppf
    "evaluated on the primary dataset; cross-profile = perfect predictor@.";
  Format.fprintf ppf "trained on a different dataset)@.@.";
  let order = Predict.Combined.paper_order in
  let rows =
    List.filter_map
      (fun (r : Bench_run.t) ->
        match r.wl.datasets with
        | _ :: alt :: _ ->
          let eval_db = r.db in
          let train_db = Bench_run.db_for r alt in
          (* predictions trained on [alt]: majority direction per
             branch, keyed by (proc, pc) *)
          let trained = Hashtbl.create 512 in
          Array.iter
            (fun (b : D.branch) ->
              Hashtbl.replace trained (b.proc, b.pc)
                (Predict.Combined.perfect_predict b))
            train_db.branches;
          let cross (b : D.branch) =
            match Hashtbl.find_opt trained (b.proc, b.pc) with
            | Some dir -> dir
            | None -> b.rand_pred
          in
          let branches = Array.to_list eval_db.branches in
          Some
            ( r.wl.name,
              M.miss_rate cross branches,
              M.miss_rate (Predict.Combined.predict order) branches,
              M.perfect_rate branches )
        | _ -> None)
      (Bench_run.load_all ())
  in
  let render (n, c, h, p) =
    [ n; Texttab.pct1 c; Texttab.pct1 h; Texttab.pct1 p ]
  in
  let mean f = Stats.mean (List.map f rows) in
  Texttab.render ppf
    ~header:[ "Program"; "cross-profile"; "heuristics"; "self-profile" ]
    (List.map render rows
    @ [
        [
          "MEAN";
          Texttab.pct1 (mean (fun (_, c, _, _) -> c));
          Texttab.pct1 (mean (fun (_, _, h, _) -> h));
          Texttab.pct1 (mean (fun (_, _, _, p) -> p));
        ];
      ])

let layout ppf =
  Format.fprintf ppf
    "Ablation: prediction-guided code layout — dynamic taken rate of@.";
  Format.fprintf ppf
    "conditional branches before/after trace-based re-linearisation@.@.";
  let order = Predict.Combined.paper_order in
  let rows =
    List.map
      (fun (r : Bench_run.t) ->
        let laid =
          Predict.Layout.guided r.db
            ~predictor:(Predict.Combined.predict order)
        in
        (* "before" is the primary edge profile: the same program on the
           same dataset, so only the laid-out program is simulated *)
        let t0 = Sim.Profile.taken_execs r.profile
        and e0 = Sim.Profile.branch_execs r.profile in
        let ((t1, e1, _) as after) =
          Predict.Layout.taken_transfers laid
            (Workloads.Workload.primary_dataset r.wl)
        in
        Predict.Layout.check_run ~name:r.wl.name r.profile after;
        let rate t e = float_of_int t /. float_of_int (max 1 e) in
        (r.wl.name, rate t0 e0, rate t1 e1))
      (Bench_run.load_all ())
  in
  let mean f = Stats.mean (List.map f rows) in
  Texttab.render ppf
    ~header:[ "Program"; "taken before"; "taken after" ]
    (List.map
       (fun (n, b, a) -> [ n; Texttab.pct b; Texttab.pct a ])
       rows
    @ [
        [
          "MEAN";
          Texttab.pct (mean (fun (_, b, _) -> b));
          Texttab.pct (mean (fun (_, _, a) -> a));
        ];
      ])

let extended ppf =
  Format.fprintf ppf
    "Ablation: Section 4.4 — unsuccessful heuristics (Distance, Postdom,@.";
  Format.fprintf ppf
    "Dominated) and the deeper Guard generalisation, in isolation on@.";
  Format.fprintf ppf "dynamic non-loop branches (coverage %%, miss/perfect)@.@.";
  let heuristics = Predict.Heuristic_ext.all in
  let header =
    "Program"
    :: List.concat_map
         (fun h -> [ Predict.Heuristic_ext.name h; "miss/prf" ])
         heuristics
    @ [ "Guard"; "miss/prf" ]
  in
  let rows =
    List.map
      (fun (r : Bench_run.t) ->
        let nl = D.non_loop_branches r.db in
        let cell partial =
          let cov = M.coverage partial nl in
          if Float.is_nan cov || cov < 0.01 then [ ""; "" ]
          else
            [
              Texttab.pct cov;
              Texttab.ratio
                (M.miss_rate_covered partial nl)
                (M.perfect_rate (M.covered partial nl));
            ]
        in
        let ext h (b : D.branch) =
          Predict.Heuristic_ext.apply h r.analyses.(b.proc) ~block:b.block
            ~taken:b.taken_dst ~fall:b.fall_dst
        in
        r.wl.name
        :: List.concat_map (fun h -> cell (ext h)) heuristics
        @ cell (fun (b : D.branch) ->
              b.heur.(Predict.Heuristic.to_int Predict.Heuristic.Guard)))
      (Bench_run.load_all ())
  in
  Texttab.render ppf ~header rows;
  (* aggregate miss rates over all covered branches, suite-wide *)
  Format.fprintf ppf "@.aggregate (dynamic, suite-wide) miss on covered:@.";
  let agg partial_of =
    let miss = ref 0 and total = ref 0 in
    List.iter
      (fun (r : Bench_run.t) ->
        let nl = D.non_loop_branches r.db in
        List.iter
          (fun (b : D.branch) ->
            match partial_of r b with
            | Some dir ->
              miss := !miss + D.misses b dir;
              total := !total + D.exec b
            | None -> ())
          nl)
      (Bench_run.load_all ());
    if !total = 0 then Float.nan else float_of_int !miss /. float_of_int !total
  in
  List.iter
    (fun h ->
      Format.fprintf ppf "  %-10s %s%%@."
        (Predict.Heuristic_ext.name h)
        (Texttab.pct1
           (agg (fun (r : Bench_run.t) (b : D.branch) ->
                Predict.Heuristic_ext.apply h r.analyses.(b.proc)
                  ~block:b.block ~taken:b.taken_dst ~fall:b.fall_dst))))
    heuristics;
  Format.fprintf ppf "  %-10s %s%%@." "Guard"
    (Texttab.pct1
       (agg (fun (_ : Bench_run.t) (b : D.branch) ->
            b.heur.(Predict.Heuristic.to_int Predict.Heuristic.Guard))))
