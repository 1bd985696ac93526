module D = Predict.Database
module M = Predict.Metrics

let nl_of (r : Bench_run.t) = D.non_loop_branches r.db
let lp_of (r : Bench_run.t) = D.loop_branches r.db
let all_of (r : Bench_run.t) = Array.to_list r.db.branches

let lang_groups () =
  let rs = Bench_run.load_all () in
  List.partition (fun (r : Bench_run.t) -> r.wl.lang = Workloads.Workload.C) rs

let pct_non_loop r =
  let nl = M.total_exec (nl_of r) and all = M.total_exec (all_of r) in
  if all = 0 then Float.nan else float_of_int nl /. float_of_int all

(* sort a group by non-loop share, descending, as in Table 2 *)
let by_non_loop_share rs =
  List.sort (fun a b -> compare (pct_non_loop b) (pct_non_loop a)) rs

let table1 ppf =
  Format.fprintf ppf "Table 1: benchmarks, sorted by code size within group@.";
  Format.fprintf ppf "(SPEC89 members marked *; sizes in IR instructions)@.@.";
  let row (r : Bench_run.t) =
    [
      (r.wl.name ^ if r.wl.spec then " *" else "");
      r.wl.description;
      Format.asprintf "%a" Workloads.Workload.pp_lang r.wl.lang;
      string_of_int (Mips.Program.code_size r.prog);
      string_of_int (Mips.Program.static_branch_count r.prog);
      string_of_int (List.length r.wl.datasets);
    ]
  in
  let ints, floats = lang_groups () in
  let by_size rs =
    List.sort
      (fun (a : Bench_run.t) b ->
        compare (Mips.Program.code_size b.prog) (Mips.Program.code_size a.prog))
      rs
  in
  Texttab.render ppf
    ~header:[ "Program"; "Description"; "Lng"; "Insns"; "Branches"; "Datasets" ]
    (List.map row (by_size ints @ by_size floats))

(* ---------------- Table 2 ---------------- *)

type t2row = {
  name2 : string;
  loop_prd : float;
  loop_prf : float;
  share_nl : float;
  tgt : float;
  rnd : float;
  nl_prf : float;
  big_n : int;
  big_share : float;
}

let t2data (r : Bench_run.t) =
  let nl = nl_of r and lp = lp_of r in
  let big, big_share = M.big_branches ~threshold:0.05 nl in
  {
    name2 = r.wl.name;
    loop_prd = M.miss_rate (fun b -> b.D.loop_pred) lp;
    loop_prf = M.perfect_rate lp;
    share_nl = pct_non_loop r;
    tgt = M.miss_rate (fun _ -> true) nl;
    rnd = M.miss_rate (fun b -> b.D.rand_pred) nl;
    nl_prf = M.perfect_rate nl;
    big_n = List.length big;
    big_share;
  }

let table2 ppf =
  Format.fprintf ppf
    "Table 2: dynamic breakdown of loop vs non-loop branches@.";
  Format.fprintf ppf
    "(Prd/Prf = loop predictor miss %% / perfect miss %%; %%All = share of@.";
  Format.fprintf ppf
    " dynamic branches that are non-loop; Tgt/Rnd = target/random miss)@.@.";
  let ints, floats = lang_groups () in
  let rows group = List.map t2data (by_non_loop_share group) in
  let irows = rows ints and frows = rows floats in
  let render_row d =
    [
      d.name2;
      Texttab.ratio d.loop_prd d.loop_prf;
      Texttab.pct d.share_nl;
      Texttab.ratio d.tgt d.nl_prf;
      Texttab.ratio d.rnd d.nl_prf;
      string_of_int d.big_n;
      Texttab.pct d.big_share;
    ]
  in
  let all = irows @ frows in
  let agg f = List.map f all in
  let mrow name stat =
    [
      name;
      Texttab.ratio (stat (agg (fun d -> d.loop_prd))) (stat (agg (fun d -> d.loop_prf)));
      Texttab.pct (stat (agg (fun d -> d.share_nl)));
      Texttab.ratio (stat (agg (fun d -> d.tgt))) (stat (agg (fun d -> d.nl_prf)));
      Texttab.ratio (stat (agg (fun d -> d.rnd))) (stat (agg (fun d -> d.nl_prf)));
      "";
      "";
    ]
  in
  Texttab.render ppf
    ~header:
      [ "Program"; "Loop Prd/Prf"; "%All"; "Tgt/Prf"; "Rnd/Prf"; "Big"; "Big%" ]
    (List.map render_row irows
    @ [ [ "--" ] ]
    @ List.map render_row frows
    @ [ mrow "MEAN" Stats.mean; mrow "Std.Dev" Stats.stddev ])

(* ---------------- Table 3 ---------------- *)

let table3 ppf =
  Format.fprintf ppf "Table 3: each heuristic applied in isolation@.";
  Format.fprintf ppf
    "(coverage %% of dynamic non-loop branches, then miss/perfect on the@.";
  Format.fprintf ppf " covered branches; blank when coverage < 1%%)@.@.";
  let ints, floats = lang_groups () in
  let heuristics = Predict.Heuristic.all in
  let cell r h =
    let nl = nl_of r in
    let partial (b : D.branch) = b.D.heur.(Predict.Heuristic.to_int h) in
    let cov = M.coverage partial nl in
    if Float.is_nan cov || cov < 0.01 then (Float.nan, Float.nan, Float.nan)
    else
      ( cov,
        M.miss_rate_covered partial nl,
        M.perfect_rate (M.covered partial nl) )
  in
  let render_row (r : Bench_run.t) =
    r.wl.name :: Texttab.pct (pct_non_loop r)
    :: List.concat_map
         (fun h ->
           let cov, miss, prf = cell r h in
           if Float.is_nan cov then [ ""; "" ]
           else [ Texttab.pct cov; Texttab.ratio miss prf ])
         heuristics
  in
  let header =
    "Program" :: "NL"
    :: List.concat_map
         (fun h -> [ Predict.Heuristic.name h; "miss/prf" ])
         heuristics
  in
  let rows group = List.map render_row (by_non_loop_share group) in
  (* means over non-blank entries: [stat] skips the NaN of a blank *)
  let all = by_non_loop_share ints @ by_non_loop_share floats in
  let mean_cells stat =
    List.concat_map
      (fun h ->
        let entries = List.map (fun r -> cell r h) all in
        let cov = stat (List.map (fun (c, _, _) -> c) entries) in
        let misses = List.map (fun (_, m, _) -> m) entries in
        let prfs = List.map (fun (_, _, p) -> p) entries in
        [
          (if Float.is_nan cov then "" else Texttab.pct cov);
          Texttab.ratio (stat misses) (stat prfs);
        ])
      heuristics
  in
  Texttab.render ppf ~header
    (rows ints
    @ [ [ "--" ] ]
    @ rows floats
    @ [ "MEAN" :: "" :: mean_cells Stats.mean;
        "Std.Dev" :: "" :: mean_cells Stats.stddev ])

(* ---------------- Table 5 ---------------- *)

let slice_of order (b : D.branch) = snd (Predict.Combined.predict_non_loop order b)

let table5 ppf =
  let order = Predict.Combined.paper_order in
  Format.fprintf ppf
    "Table 5: heuristics under the prioritised order %s@."
    (String.concat " -> " (List.map Predict.Heuristic.name order));
  Format.fprintf ppf
    "(per heuristic: %% of dynamic non-loop branches it predicts, and@.";
  Format.fprintf ppf " miss/perfect on that slice; Default = random)@.@.";
  let ints, floats = lang_groups () in
  let sources =
    List.map (fun h -> Predict.Combined.By h) order @ [ Predict.Combined.Default ]
  in
  let source_name = function
    | Predict.Combined.By h -> Predict.Heuristic.name h
    | Predict.Combined.Default -> "Default"
  in
  let cell r src =
    let nl = nl_of r in
    let total = M.total_exec nl in
    let slice = List.filter (fun b -> slice_of order b = src) nl in
    let e = M.total_exec slice in
    let cov = if total = 0 then Float.nan else float_of_int e /. float_of_int total in
    if Float.is_nan cov || cov < 0.01 then None
    else begin
      let pred b = fst (Predict.Combined.predict_non_loop order b) in
      Some (cov, M.miss_rate pred slice, M.perfect_rate slice)
    end
  in
  let render_row (r : Bench_run.t) =
    r.wl.name
    :: List.concat_map
         (fun src ->
           match cell r src with
           | None -> [ ""; "" ]
           | Some (cov, miss, prf) ->
             [ Texttab.pct cov; Texttab.ratio miss prf ])
         sources
  in
  let header =
    "Program"
    :: List.concat_map (fun s -> [ source_name s; "miss/prf" ]) sources
  in
  let all = by_non_loop_share ints @ by_non_loop_share floats in
  let stat_cells stat =
    List.concat_map
      (fun src ->
        let entries = List.filter_map (fun r -> cell r src) all in
        if entries = [] then [ ""; "" ]
        else begin
          let covs = List.map (fun (c, _, _) -> c) entries in
          let misses = List.map (fun (_, m, _) -> m) entries in
          let prfs = List.map (fun (_, _, p) -> p) entries in
          [
            Printf.sprintf "%.0f" (stat covs *. 100.);
            Texttab.ratio (stat misses) (stat prfs);
          ]
        end)
      sources
  in
  Texttab.render ppf ~header
    (List.map render_row (by_non_loop_share ints)
    @ [ [ "--" ] ]
    @ List.map render_row (by_non_loop_share floats)
    @ [ "MEAN" :: stat_cells Stats.mean; "Std.Dev" :: stat_cells Stats.stddev ])

(* ---------------- Table 6 ---------------- *)

type t6row = {
  name6 : string;
  cov : float;
  h_miss : float;
  h_prf : float;
  d_miss : float;
  d_prf : float;
  a_miss : float;
  a_prf : float;
  lr_miss : float;
  lr_prf : float;
}

let t6data (r : Bench_run.t) =
  let order = Predict.Combined.paper_order in
  let nl = nl_of r and all = all_of r in
  let covered =
    List.filter (fun b -> slice_of order b <> Predict.Combined.Default) nl
  in
  let pred_nl b = fst (Predict.Combined.predict_non_loop order b) in
  {
    name6 = r.wl.name;
    cov =
      (let t = M.total_exec nl in
       if t = 0 then Float.nan
       else float_of_int (M.total_exec covered) /. float_of_int t);
    h_miss = M.miss_rate pred_nl covered;
    h_prf = M.perfect_rate covered;
    d_miss = M.miss_rate pred_nl nl;
    d_prf = M.perfect_rate nl;
    a_miss = M.miss_rate (Predict.Combined.predict order) all;
    a_prf = M.perfect_rate all;
    lr_miss = M.miss_rate Predict.Combined.loop_rand_predict all;
    lr_prf = M.perfect_rate all;
  }

let table6 ppf =
  Format.fprintf ppf "Table 6: final results@.";
  Format.fprintf ppf
    "(Heuristics: covered non-loop branches; +Default adds uncovered;@.";
  Format.fprintf ppf
    " All adds loop branches; Loop+Rand = loop predictor + random)@.@.";
  let ints, floats = lang_groups () in
  let render d =
    [
      d.name6;
      Texttab.pct d.cov;
      Texttab.ratio d.h_miss d.h_prf;
      Texttab.ratio d.d_miss d.d_prf;
      Texttab.ratio d.a_miss d.a_prf;
      Texttab.ratio d.lr_miss d.lr_prf;
    ]
  in
  let irows = List.map t6data (by_non_loop_share ints) in
  let frows = List.map t6data (by_non_loop_share floats) in
  let all = irows @ frows in
  let mrow name stat =
    [
      name;
      Texttab.pct (stat (List.map (fun d -> d.cov) all));
      Texttab.ratio
        (stat (List.map (fun d -> d.h_miss) all))
        (stat (List.map (fun d -> d.h_prf) all));
      Texttab.ratio
        (stat (List.map (fun d -> d.d_miss) all))
        (stat (List.map (fun d -> d.d_prf) all));
      Texttab.ratio
        (stat (List.map (fun d -> d.a_miss) all))
        (stat (List.map (fun d -> d.a_prf) all));
      Texttab.ratio
        (stat (List.map (fun d -> d.lr_miss) all))
        (stat (List.map (fun d -> d.lr_prf) all));
    ]
  in
  Texttab.render ppf
    ~header:[ "Program"; "Cov%"; "Heuristics"; "+Default"; "All"; "Loop+Rand" ]
    (List.map render irows
    @ [ [ "--" ] ]
    @ List.map render frows
    @ [ mrow "MEAN" Stats.mean; mrow "Std.Dev" Stats.stddev ])

(* ---------------- Table 7 ---------------- *)

let table7 ppf =
  Format.fprintf ppf "Table 7: summary over benchmark sets@.";
  Format.fprintf ppf
    "((most) excludes eqntott, grep, tomcatv, matrix300 — the programs@.";
  Format.fprintf ppf
    " dominated by a handful of branches; entries are mean +- std)@.@.";
  let excluded = [ "eqntott"; "grep"; "tomcatv"; "matrix300" ] in
  let all = Bench_run.load_all () in
  let most =
    List.filter (fun (r : Bench_run.t) -> not (List.mem r.wl.name excluded)) all
  in
  let fmt_ms xs =
    let m, s = Stats.mean_std xs in
    Printf.sprintf "%s +- %s" (Texttab.pct m) (Texttab.pct s)
  in
  let row name get =
    [
      name;
      fmt_ms (List.map get (List.map t6data all));
      fmt_ms (List.map get (List.map t6data most));
    ]
  in
  let t2row name get =
    [
      name;
      fmt_ms (List.map get (List.map t2data all));
      fmt_ms (List.map get (List.map t2data most));
    ]
  in
  Texttab.render ppf
    ~header:[ "Metric"; "(all)"; "(most)" ]
    [
      row "Heuristics (covered non-loop)" (fun d -> d.h_miss);
      row "+Default (all non-loop)" (fun d -> d.d_miss);
      row "All branches" (fun d -> d.a_miss);
      row "Loop+Rand (all branches)" (fun d -> d.lr_miss);
      t2row "Tgt (non-loop)" (fun d -> d.tgt);
      t2row "Rnd (non-loop)" (fun d -> d.rnd);
      t2row "Perfect (non-loop)" (fun d -> d.nl_prf);
    ]

(* ---------------- loop shapes (Section 3 support) ---------------- *)

let loop_shapes ppf =
  Format.fprintf ppf
    "Loop-branch shapes: share of dynamic loop-branch executions whose@.";
  Format.fprintf ppf
    "branch is NOT a backward branch (why natural loops beat BTFN)@.@.";
  let rows =
    List.map
      (fun (r : Bench_run.t) ->
        let lp = lp_of r in
        let total = M.total_exec lp in
        let fwd =
          M.total_exec (List.filter (fun b -> not b.D.backward) lp)
        in
        let share =
          if total = 0 then Float.nan
          else float_of_int fwd /. float_of_int total
        in
        [ r.wl.name; Texttab.pct share ])
      (Bench_run.load_all ())
  in
  Texttab.render ppf ~header:[ "Program"; "%fwd loop branches" ] rows
