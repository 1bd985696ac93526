(* bpredict: command-line front end to the Ball-Larus program-based
   branch predictor.

   Subcommands:
     compile    compile a MiniC file and print the disassembly
     cfg        print a procedure's CFG (text or dot)
     predict    annotate every branch with class, heuristics, prediction
     profile    run a program and report per-predictor miss rates
     trace      run the IPBC trace analysis
     experiment run one of the paper's tables/figures (or "all")
     list       list workloads and experiments *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* A program source: either a MiniC file or a named built-in workload
   with its primary dataset. *)
let load_program src =
  match Workloads.Registry.find src with
  | wl -> (Workloads.Workload.compile wl, Workloads.Workload.primary_dataset wl)
  | exception Not_found ->
    if Sys.file_exists src then
      (Minic.Frontend.compile (read_file src), Sim.Dataset.make ~name:"empty" [||])
    else
      failwith
        (Printf.sprintf "%s: not a workload name and not a file" src)

(* Compile, analyse and profile a source, and build its branch
   database: the common front half of predict, profile and layout. *)
let load_database src =
  let prog, ds = load_program src in
  let analyses = Cfg.Analysis.of_program prog in
  let profile = Sim.Profile.run prog ds in
  let db =
    Predict.Database.make prog analyses ~taken:profile.taken
      ~fall:profile.fall
  in
  (prog, ds, profile, db)

let src_arg =
  let doc = "A MiniC source file, or the name of a built-in workload." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SOURCE" ~doc)

(* Domain count for the parallel sections (experiment suite, trace
   warm-up).  Falls back to BALLARUS_JOBS, then to the machine's
   recommended domain count; -j 1 forces the sequential path. *)
let jobs_arg =
  let doc =
    "Number of domains for parallel sections (default: \
     $(b,BALLARUS_JOBS) or the machine's recommended domain count; 1 \
     runs sequentially)."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let apply_jobs = function
  | Some n when n >= 1 -> Par.Pool.set_jobs n
  | Some n -> failwith (Printf.sprintf "-j %d: need at least one domain" n)
  | None -> ()

let no_cache_arg =
  let doc =
    "Bypass the persistent result cache ($(b,_cache/)); simulate and \
     enumerate from scratch.  Equivalent to setting \
     $(b,BALLARUS_NO_CACHE)."
  in
  Arg.(value & flag & info [ "no-cache" ] ~doc)

let apply_no_cache no_cache = if no_cache then Cache.Store.set_enabled false

let handle_errors f =
  (* Pool task failures are unwrapped so the user sees the underlying
     error (and the exit code matches it), not the pool's wrapper. *)
  let rec handle = function
    | Par.Pool.Task_failed { exn; _ } -> handle exn
    | Minic.Frontend.Error msg | Failure msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1
    | Sim.Machine.Fault msg ->
      Printf.eprintf "runtime fault: %s\n" msg;
      exit 2
    | Sim.Machine.Out_of_fuel msg ->
      Printf.eprintf "runtime fault: %s\n" msg;
      exit 2
    | e -> raise e
  in
  try f () with e -> handle e

let timeout_arg =
  let doc =
    "Per-experiment wall-clock timeout in seconds; an experiment that \
     misses it fails with a timeout banner and the suite continues."
  in
  Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SECS" ~doc)

let chaos_arg =
  let doc =
    "Enable seeded fault injection (cache corruption, task failures, \
     delays) with this seed.  Equivalent to setting $(b,BALLARUS_CHAOS)."
  in
  Arg.(value & opt (some int) None & info [ "chaos" ] ~docv:"SEED" ~doc)

let apply_chaos = function
  | Some seed -> Robust.Inject.set_seed (Some seed)
  | None -> ()

let trace_arg =
  let doc =
    "Record spans (pipeline stages, pool jobs, supervised experiments) \
     and write them to $(docv) as Chrome trace_event JSON at exit — \
     loadable in chrome://tracing or Perfetto.  Equivalent to setting \
     $(b,BALLARUS_TRACE).  Tracing never changes the tables."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let apply_trace = function
  | Some file -> Obs.set_trace_file (Some file)
  | None -> ()

(* ---- compile ---- *)

let compile_cmd =
  let run src =
    handle_errors (fun () ->
        let prog, _ = load_program src in
        Format.printf "%a" Mips.Program.pp prog)
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile MiniC and print the disassembly")
    Term.(const run $ src_arg)

(* ---- cfg ---- *)

let cfg_cmd =
  let proc_arg =
    Arg.(value & opt (some string) None & info [ "p"; "proc" ] ~docv:"PROC"
           ~doc:"Procedure to dump (default: all).")
  in
  let dot_arg =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz dot format.")
  in
  let run src proc dot =
    handle_errors (fun () ->
        let prog, _ = load_program src in
        let dump (p : Mips.Program.proc) =
          let g = Cfg.Graph.build p in
          if dot then Format.printf "%a" Cfg.Graph.to_dot g
          else begin
            Format.printf "%s:@." p.name;
            Format.printf "%a@." Cfg.Graph.pp g
          end
        in
        match proc with
        | Some name -> dump (Mips.Program.find_proc prog name)
        | None -> Array.iter dump prog.procs)
  in
  Cmd.v
    (Cmd.info "cfg" ~doc:"Print control-flow graphs")
    Term.(const run $ src_arg $ proc_arg $ dot_arg)

(* ---- predict ---- *)

let predict_cmd =
  let run src =
    handle_errors (fun () ->
        let prog, _, _, db = load_database src in
        let order = Predict.Combined.paper_order in
        Format.printf
          "branch predictions (order: %s; T = predict taken)@.@."
          (String.concat " " (List.map Predict.Heuristic.name order));
        Array.iter
          (fun (br : Predict.Database.branch) ->
            let dir, source = Predict.Combined.predict_non_loop order br in
            let where =
              Format.asprintf "%s+%d" prog.procs.(br.proc).name br.pc
            in
            let insn =
              Mips.Insn.to_string prog.procs.(br.proc).body.(br.pc)
            in
            match br.cls with
            | Predict.Classify.Loop_branch ->
              Format.printf "%-18s %-24s loop      %s  (loop predictor)@."
                where insn
                (if br.loop_pred then "T" else "F")
            | Predict.Classify.Non_loop_branch ->
              let why =
                match source with
                | Predict.Combined.By h -> Predict.Heuristic.name h
                | Predict.Combined.Default -> "Default"
              in
              Format.printf "%-18s %-24s non-loop  %s  (%s)@." where insn
                (if dir then "T" else "F")
                why)
          db.branches)
  in
  Cmd.v
    (Cmd.info "predict"
       ~doc:"Annotate every conditional branch with its static prediction")
    Term.(const run $ src_arg)

(* ---- profile ---- *)

let profile_cmd =
  let run src =
    handle_errors (fun () ->
        let _, _, profile, db = load_database src in
        let branches = Array.to_list db.branches in
        let order = Predict.Combined.paper_order in
        let open Predict in
        Format.printf "instructions executed : %d@." profile.stats.instr_count;
        Format.printf "dynamic branches      : %d@."
          (Metrics.total_exec branches);
        Format.printf "output checksum       : %d@.@." profile.stats.checksum;
        let report name rate =
          Format.printf "%-22s: %s%% miss@." name (Experiments.Texttab.pct1 rate)
        in
        report "perfect (this dataset)" (Metrics.perfect_rate branches);
        report "heuristic (Ball-Larus)"
          (Metrics.miss_rate (Combined.predict order) branches);
        report "loop + random" (Metrics.miss_rate Combined.loop_rand_predict branches);
        report "BTFN"
          (Metrics.miss_rate (fun b -> b.Database.backward) branches);
        report "always taken" (Metrics.miss_rate (fun _ -> true) branches))
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Run a program and compare static predictors against its profile")
    Term.(const run $ src_arg)

(* ---- trace ---- *)

let trace_cmd =
  let run src jobs no_cache =
    handle_errors (fun () ->
        apply_jobs jobs;
        apply_no_cache no_cache;
        match Workloads.Registry.find src with
        | exception Not_found ->
          failwith "trace analysis requires a built-in workload name"
        | _ -> Experiments.Traces.graph_for Format.std_formatter src)
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Instructions-per-break-in-control analysis")
    Term.(const run $ src_arg $ jobs_arg $ no_cache_arg)

(* ---- layout ---- *)

let layout_cmd =
  let run src =
    handle_errors (fun () ->
        let prog, ds, profile, db = load_database src in
        let laid =
          Predict.Layout.guided db
            ~predictor:(Predict.Combined.predict Predict.Combined.paper_order)
        in
        let ((t1, _, s1) as after) = Predict.Layout.taken_transfers laid ds in
        Predict.Layout.check_run ~name:src profile after;
        Format.printf
          "laid out %d procedures along predicted traces@."
          (Array.length prog.procs);
        Format.printf "taken conditional branches: %d -> %d (of %d executed)@."
          (Sim.Profile.taken_execs profile)
          t1
          (Sim.Profile.branch_execs profile);
        Format.printf "instructions executed: %d -> %d (checksum unchanged)@."
          profile.stats.instr_count s1.instr_count)
  in
  Cmd.v
    (Cmd.info "layout"
       ~doc:"Re-linearise code along predicted traces and measure the effect")
    Term.(const run $ src_arg)

(* ---- experiment ---- *)

let experiment_cmd =
  let id_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ID"
           ~doc:"Experiment id (table1..table7, graph1..graph13, \
                 ablation-*, loopshapes) or 'all'.")
  in
  let quick_arg =
    Arg.(value & flag & info [ "quick" ]
           ~doc:"Cap the subset experiment at 20,000 trials.")
  in
  let run id quick jobs no_cache timeout chaos trace =
    handle_errors (fun () ->
        apply_jobs jobs;
        apply_no_cache no_cache;
        apply_chaos chaos;
        apply_trace trace;
        if String.equal id "all" then begin
          let summary =
            Experiments.Driver.run_all ~quick ?timeout Format.std_formatter
          in
          Experiments.Driver.pp_summary Format.err_formatter summary;
          exit (Experiments.Driver.exit_code summary)
        end
        else
          match Experiments.Driver.find id with
          | Some e ->
            let summary =
              Experiments.Driver.run_list ~quick ?timeout ~warm:false [ e ]
                Format.std_formatter
            in
            if Experiments.Driver.exit_code summary <> 0 then begin
              Experiments.Driver.pp_summary Format.err_formatter summary;
              exit (Experiments.Driver.exit_code summary)
            end
          | None ->
            Printf.eprintf
              "error: unknown experiment %s; valid ids are:\n" id;
            List.iter
              (fun (e : Experiments.Driver.experiment) ->
                Printf.eprintf "  %s\n" e.id)
              Experiments.Driver.all;
            Printf.eprintf "  all\n";
            exit 1)
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Reproduce one of the paper's tables/figures")
    Term.(const run $ id_arg $ quick_arg $ jobs_arg $ no_cache_arg
          $ timeout_arg $ chaos_arg $ trace_arg)

(* ---- stats ---- *)

let stats_cmd =
  let id_arg =
    Arg.(value & pos 0 string "all" & info [] ~docv:"ID"
           ~doc:"Experiment id to run under instrumentation, or 'all'.")
  in
  let full_arg =
    Arg.(value & flag & info [ "full" ]
           ~doc:"Run the full (uncapped) experiments instead of the quick \
                 variants.")
  in
  let run id full jobs no_cache trace =
    handle_errors (fun () ->
        apply_jobs jobs;
        apply_no_cache no_cache;
        apply_trace trace;
        (* span statistics come from the recorded events *)
        Obs.enable ();
        let quick = not full in
        let null = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ()) in
        (if String.equal id "all" then
           ignore (Experiments.Driver.run_all ~quick null)
         else
           match Experiments.Driver.find id with
           | Some e ->
             ignore
               (Experiments.Driver.run_list ~quick ~warm:false [ e ] null)
           | None ->
             Printf.eprintf "error: unknown experiment %s\n" id;
             exit 1);
        Obs.dump Format.std_formatter)
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Run experiments under instrumentation and dump the metrics \
             counters and per-span duration statistics (count, sum, \
             p50, p95, max); tables are discarded")
    Term.(const run $ id_arg $ full_arg $ jobs_arg $ no_cache_arg $ trace_arg)

(* ---- list ---- *)

let list_cmd =
  let run () =
    Format.printf "workloads:@.";
    List.iter
      (fun (w : Workloads.Workload.t) ->
        Format.printf "  %-10s %s@." w.name w.description)
      Workloads.Registry.all;
    Format.printf "@.experiments:@.";
    List.iter
      (fun (e : Experiments.Driver.experiment) ->
        Format.printf "  %-16s %s@." e.id e.title)
      Experiments.Driver.all
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List built-in workloads and experiments")
    Term.(const run $ const ())

let main_cmd =
  let doc = "program-based branch prediction (Ball & Larus, PLDI 1993)" in
  Cmd.group (Cmd.info "bpredict" ~version:"1.0.0" ~doc)
    [ compile_cmd; cfg_cmd; predict_cmd; profile_cmd; trace_cmd; layout_cmd;
      experiment_cmd; stats_cmd; list_cmd ]

let () = exit (Cmd.eval main_cmd)
