type divergence = { oracle : string; detail : string }

let pp_divergence ppf d = Format.fprintf ppf "[%s] %s" d.oracle d.detail

let div oracle fmt = Printf.ksprintf (fun detail -> { oracle; detail }) fmt

(* generated programs read no input; an empty dataset keeps any stray
   read() an honest fault in both executors *)
let dataset = Sim.Dataset.make ~name:"fuzz" [||]

let max_steps = 50_000_000

let stats_mismatch oracle which (i : Minic.Interp.stats)
    (m : Sim.Machine.stats) =
  if
    i.checksum <> m.checksum
    || i.ints_read <> m.ints_read
    || i.floats_read <> m.floats_read
  then
    [
      div oracle
        "%s: interp {checksum=%d ints=%d floats=%d} vs machine \
         {checksum=%d ints=%d floats=%d}"
        which i.checksum i.ints_read i.floats_read m.checksum m.ints_read
        m.floats_read;
    ]
  else []

let check_flow prog (profile : Sim.Profile.t) =
  match
    Cfg.Flow.check_program prog ~taken:profile.taken ~fall:profile.fall
  with
  | [] -> []
  | msgs -> List.map (fun m -> div "flow" "%s" m) msgs

(* re-derive every database field from first principles and compare *)
let check_predict prog analyses (profile : Sim.Profile.t) =
  let module D = Predict.Database in
  let module C = Predict.Combined in
  let db = D.make prog analyses ~taken:profile.taken ~fall:profile.fall in
  let errs = ref [] in
  let err e = errs := e :: !errs in
  Array.iter
    (fun (b : D.branch) ->
      let where =
        Printf.sprintf "%s pc %d" prog.Mips.Program.procs.(b.proc).name b.pc
      in
      let a = analyses.(b.proc) in
      let cls =
        Predict.Classify.classify a ~block:b.block ~taken:b.taken_dst
          ~fall:b.fall_dst
      in
      if cls <> b.cls then
        err
          (div "predict" "%s: stored class %s but re-derived %s" where
             (Format.asprintf "%a" Predict.Classify.pp_cls b.cls)
             (Format.asprintf "%a" Predict.Classify.pp_cls cls));
      if b.rand_pred <> D.rand_bit ~seed:db.seed ~proc:b.proc ~pc:b.pc then
        err (div "predict" "%s: rand_pred disagrees with rand_bit" where);
      (if b.cls = Predict.Classify.Loop_branch then begin
         let lp =
           Predict.Classify.loop_predict a ~block:b.block ~taken:b.taken_dst
             ~fall:b.fall_dst
         in
         if lp <> b.loop_pred then
           err (div "predict" "%s: loop_pred disagrees with loop_predict" where)
       end);
      (* combined predictor must honour the loop/non-loop partition *)
      let full = C.predict C.paper_order b in
      if b.cls = Predict.Classify.Loop_branch then begin
        if full <> b.loop_pred then
          err
            (div "predict" "%s: combined predictor ignored the loop predictor"
               where)
      end
      else begin
        let dir, src = C.predict_non_loop C.paper_order b in
        if full <> dir then
          err (div "predict" "%s: predict <> predict_non_loop" where);
        match src with
        | C.Default ->
          if
            List.exists
              (fun h -> b.heur.(Predict.Heuristic.to_int h) <> None)
              C.paper_order
          then
            err
              (div "predict" "%s: Default fired but a heuristic applies" where)
          else if dir <> b.rand_pred then
            err (div "predict" "%s: Default direction <> rand_pred" where)
        | C.By h -> (
          match b.heur.(Predict.Heuristic.to_int h) with
          | None -> err (div "predict" "%s: By %s but heuristic is None" where
                           (Predict.Heuristic.name h))
          | Some d ->
            if d <> dir then
              err
                (div "predict" "%s: By %s direction mismatch" where
                   (Predict.Heuristic.name h));
            (* every heuristic ranked earlier must not apply *)
            let rec earlier = function
              | [] -> ()
              | h' :: _ when h' = h -> ()
              | h' :: rest ->
                if b.heur.(Predict.Heuristic.to_int h') <> None then
                  err
                    (div "predict" "%s: %s fired but earlier %s applies" where
                       (Predict.Heuristic.name h)
                       (Predict.Heuristic.name h'));
                earlier rest
            in
            earlier C.paper_order)
      end)
    db.branches;
  (List.rev !errs, db)

(* the pre-decoded interpreter must be observationally identical to
   the legacy variant-dispatch loop: same stats and same edge profile *)
let check_decoded prog (profile : Sim.Profile.t) =
  match Sim.Profile.run_legacy prog dataset with
  | exception (Sim.Machine.Fault msg | Sim.Machine.Out_of_fuel msg) ->
    [ div "decoded-vs-legacy" "legacy faulted where decoded completed: %s" msg ]
  | legacy ->
    let errs = ref [] in
    if legacy.stats <> profile.stats then
      errs :=
        div "decoded-vs-legacy"
          "stats: decoded {instrs=%d checksum=%d} vs legacy {instrs=%d \
           checksum=%d}"
          profile.stats.instr_count profile.stats.checksum
          legacy.stats.instr_count legacy.stats.checksum
        :: !errs;
    if legacy.taken <> profile.taken || legacy.fall <> profile.fall then
      errs := div "decoded-vs-legacy" "edge profiles differ" :: !errs;
    List.rev !errs

(* the 5040-order miss matrix must not depend on the pool width *)
let check_determinism db =
  let with_jobs j f =
    let prev = Par.Pool.effective_jobs () in
    Par.Pool.set_jobs j;
    Fun.protect ~finally:(fun () -> Par.Pool.set_jobs prev) f
  in
  let m1 = with_jobs 1 (fun () -> Predict.Ordering.miss_matrix [| db |]) in
  let m4 = with_jobs 4 (fun () -> Predict.Ordering.miss_matrix [| db |]) in
  if Marshal.to_string m1 [] <> Marshal.to_string m4 [] then
    [ div "par-determinism" "miss_matrix differs between -j 1 and -j 4" ]
  else []

let check_source ?(det_check = false) src =
  match Minic.Frontend.compile src with
  | exception Minic.Frontend.Error msg ->
    [ div "compile" "frontend rejected program: %s" msg ]
  | prog -> (
    let unopt =
      try Ok (Minic.Frontend.compile ~optimize:false src)
      with Minic.Frontend.Error msg -> Error msg
    in
    match Minic.Interp.run ~max_steps src dataset with
    | exception Minic.Interp.Fault msg ->
      [ div "interp" "interpreter fault: %s" msg ]
    | istats -> (
      match Sim.Profile.run prog dataset with
      | exception (Sim.Machine.Fault msg | Sim.Machine.Out_of_fuel msg) ->
        (* decoded faulted: legacy must fault with the very same message *)
        let cross =
          match Sim.Profile.run_legacy prog dataset with
          | exception (Sim.Machine.Fault lmsg | Sim.Machine.Out_of_fuel lmsg) ->
            if String.equal msg lmsg then []
            else
              [
                div "decoded-vs-legacy"
                  "fault messages differ: decoded %S vs legacy %S" msg lmsg;
              ]
          | _ ->
            [
              div "decoded-vs-legacy"
                "decoded faulted (%s) but legacy completed" msg;
            ]
        in
        div "machine" "simulator fault: %s" msg :: cross
      | profile ->
        let d1 = stats_mismatch "interp-vs-machine" "opt" istats profile.stats in
        let d2 =
          match unopt with
          | Error msg -> [ div "compile" "unoptimised compile failed: %s" msg ]
          | Ok uprog -> (
            match Sim.Machine.run uprog dataset with
            | exception (Sim.Machine.Fault msg | Sim.Machine.Out_of_fuel msg) ->
              [ div "opt-vs-unopt" "unoptimised program faulted: %s" msg ]
            | ustats -> stats_mismatch "opt-vs-unopt" "unopt" istats ustats)
        in
        let d3 = check_flow prog profile in
        let analyses = Cfg.Analysis.of_program prog in
        let d4, db = check_predict prog analyses profile in
        let d5 = if det_check then check_determinism db else [] in
        let d6 = check_decoded prog profile in
        d1 @ d2 @ d3 @ d4 @ d5 @ d6))
