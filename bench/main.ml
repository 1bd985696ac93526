(* CI gates.  The repository benchmark is perfbench/ (see
   perfbench/README.md); this executable hosts the three tier-2 smoke
   gates that run under ci.sh:

     perf-smoke          tiny workload sanity run, exit nonzero if the
                         parallel path loses badly
     chaos-smoke [SEED]  run the quick suite twice — clean, then under
                         seeded fault injection — and fail unless the
                         tables are byte-identical and every injected
                         cache fault was recovered
     obs-smoke           run the quick suite untraced and traced,
                         require byte-identical tables, validate the
                         emitted Chrome trace JSON covers all four
                         pipeline stages, and check the span statistics

   "-j N" anywhere on the command line sets the domain count (default:
   BALLARUS_JOBS or the machine's recommended domain count). *)

let wall f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

(* ---- perf-smoke: a seconds-scale sanity gate for CI ----

   Profiles eight small workloads at -j 1 and at the effective width
   (one pool task each, so the jN side fans out over up to eight
   domains), and runs a capped subset enumeration the same way.  Fails
   when the parallel path is meaningfully slower than sequential — a
   speedup below 0.9x that also loses more than 50ms (so single-digit-ms
   timer noise on a 1-core host cannot flap the gate). *)

let smoke_workloads =
  [ "xlisp"; "gcc"; "compress"; "ghostview"; "rn"; "grep"; "matrix300"; "poly" ]

let perf_smoke jn =
  Cache.Store.set_enabled false;
  let stages =
    [
      ( Printf.sprintf "profile:%d-small" (List.length smoke_workloads),
        (fun () -> Experiments.Bench_run.reset ()),
        fun () -> ignore (Experiments.Bench_run.load_named smoke_workloads) );
      ( "subset:20k",
        (fun () -> ignore (Experiments.Orderings.miss_matrix_cached ())),
        fun () -> ignore (Experiments.Orderings.subset_result ~max_trials:20_000 ())
      );
    ]
  in
  (* the miss matrix feeding the subset stage is warmed once, outside
     the timed region *)
  Par.Pool.set_jobs jn;
  ignore (Experiments.Orderings.miss_matrix_cached ());
  let failures = ref [] in
  List.iter
    (fun (name, prepare, run) ->
      Par.Pool.set_jobs 1;
      prepare ();
      let t1 = wall run in
      Par.Pool.set_jobs jn;
      prepare ();
      let tn = wall run in
      let speedup = if tn > 0. then t1 /. tn else Float.nan in
      Printf.printf "%-18s j1 %7.3f s   j%d %7.3f s   speedup %5.2fx\n%!" name
        t1 jn tn speedup;
      if speedup < 0.9 && tn -. t1 > 0.05 then failures := name :: !failures)
    stages;
  match !failures with
  | [] ->
    Printf.printf "perf-smoke OK (effective jobs %d)\n" jn;
    0
  | fs ->
    Printf.printf "perf-smoke FAILED: parallel slower than sequential on %s\n"
      (String.concat ", " (List.rev fs));
    1

(* ---- the quick suite, twice, against an isolated store ----

   Both suite gates compare two renderings of the quick experiment
   suite made against the same on-disk store: the first fills it, the
   second (after [between]) is served from it.  In-memory caches are
   dropped before each rendering so both pass through the store.  The
   store lives in a per-process directory that is removed afterwards.
   Returns the two (tables, summary) pairs. *)

let quick_suite_twice ~name ~between =
  let cache_dir = Printf.sprintf "_%s_cache_%d" name (Unix.getpid ()) in
  Cache.Store.set_dir cache_dir;
  Cache.Store.set_enabled true;
  Cache.Store.clear ();
  let render () =
    Cache.Memo.reset_all ();
    let buf = Buffer.create (1 lsl 16) in
    let bppf = Format.formatter_of_buffer buf in
    let s = Experiments.Driver.run_all ~quick:true bppf in
    Format.pp_print_flush bppf ();
    (Buffer.contents buf, s)
  in
  Fun.protect
    ~finally:(fun () ->
      Cache.Store.clear ();
      try Sys.rmdir cache_dir with Sys_error _ -> ())
    (fun () ->
      let first = render () in
      between ();
      (first, render ()))

(* Print the failed checks, or [ok] when every [(cond, msg)] holds. *)
let report ~gate ~ok checks =
  match List.filter_map (fun (c, msg) -> if c then None else Some msg) checks with
  | [] ->
    print_endline ok;
    0
  | fs ->
    Printf.printf "%s FAILED: %s\n" gate (String.concat "; " fs);
    1

(* ---- chaos-smoke: the robustness gate ----

   The second rendering runs with seeded fault injection armed —
   cache-entry corruption, a task exception inside the parallel
   prewarm, scheduling delays.  One cache corruption and one task raise
   are force-armed so the gate exercises both recovery paths on every
   seed.  The registry is zeroed when injection is armed, so the
   [inject.*], [cache.*] and [robust.*] counters printed afterwards
   describe the chaos run alone.  Passes only if the chaos run's
   tables are byte-identical to the clean run's, no experiment failed
   permanently, and every injected cache corruption was quarantined
   exactly once. *)

let chaos_smoke seed =
  Printf.printf "==== chaos-smoke (seed %d) ====\n%!" seed;
  let arm () =
    Obs.Metrics.reset ();
    Robust.Inject.reset ();
    Robust.Inject.set_seed (Some seed);
    Robust.Inject.force Robust.Inject.Cache_read 1;
    Robust.Inject.force Robust.Inject.Task 1
  in
  let (clean_out, clean_sum), (chaos_out, chaos_sum) =
    quick_suite_twice ~name:"chaos" ~between:arm
  in
  Robust.Inject.set_seed None;
  let in_group prefixes (name, _) =
    List.exists (fun prefix -> String.starts_with ~prefix name) prefixes
  in
  let counters =
    List.filter (in_group [ "inject."; "cache."; "robust." ]) (Obs.Metrics.counters ())
  in
  List.iter (fun (name, n) -> Printf.printf "  %-26s %6d\n" name n) counters;
  let count name = Option.value ~default:0 (List.assoc_opt name counters) in
  let total_injected =
    List.fold_left (fun acc (_, n) -> acc + n) 0
      (List.filter (in_group [ "inject." ]) counters)
  in
  Format.printf "clean run:  %a" Experiments.Driver.pp_summary clean_sum;
  Format.printf "chaos run:  %a" Experiments.Driver.pp_summary chaos_sum;
  report ~gate:"chaos-smoke"
    ~ok:
      (Printf.sprintf
         "chaos-smoke OK: byte-identical tables under %d injected faults"
         total_injected)
    [
      (total_injected > 0, "no faults were injected");
      (String.equal chaos_out clean_out, "chaos run tables differ from clean run");
      (clean_sum.failed = 0, "clean run had permanent failures");
      (chaos_sum.failed = 0, "chaos run had permanent failures");
      ( count "cache.corrupt_quarantined" = count "inject.cache_read",
        "not every injected cache corruption was quarantined" );
    ]

(* ---- obs-smoke: the observability gate ----

   The first rendering runs with tracing off, the second with span
   recording on and the trace exported to a file.  Passes only if
   (1) the traced run's tables are byte-identical to the untraced
   run's — instrumentation must never leak into results; (2) the
   emitted file parses as JSON and its traceEvents cover all four
   pipeline stages and the experiments; (3) the span statistics count
   one experiment span per experiment and, for each of those five
   names, satisfy p50 <= p95 <= max with max the longest recorded
   event; and (4) a disabled Obs.span
   really is a no-op branch (a generous absolute bound on a tight loop
   of disabled spans, so a pessimised fast path fails loudly without
   making the gate timing-flaky). *)

let obs_smoke () =
  Printf.printf "==== obs-smoke ====\n%!";
  let trace_path = Printf.sprintf "_obs_trace_%d.json" (Unix.getpid ()) in
  Obs.disable ();
  let (plain_out, plain_sum), (traced_out, traced_sum) =
    quick_suite_twice ~name:"obs" ~between:(fun () ->
        Obs.reset_events ();
        Obs.enable ())
  in
  Obs.disable ();
  Obs.write_trace trace_path;
  let events = Obs.events () in
  let nevents = List.length events in
  let stats = Obs.span_stats () in
  let trace_names =
    let ic = open_in_bin trace_path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    (try Sys.remove trace_path with Sys_error _ -> ());
    match Obs.Json.(member "traceEvents" (parse s)) with
    | Some (Obs.Json.Arr evs) ->
      List.filter_map
        (fun e ->
          match Obs.Json.member "name" e with
          | Some (Obs.Json.Str n) -> Some n
          | _ -> None)
        evs
    | _ -> []
  in
  (* disabled-span overhead: 10M no-op spans must be branch-cheap *)
  let niter = 10_000_000 in
  let acc = ref 0 in
  let t_disabled =
    wall (fun () ->
        for i = 1 to niter do
          acc := Obs.span ~name:"noop" (fun () -> !acc + i)
        done)
  in
  Printf.printf "trace: %d events, %d distinct names -> %s\n" nevents
    (List.length (List.sort_uniq String.compare trace_names))
    trace_path;
  Printf.printf "disabled span overhead: %.1f ns/span\n"
    (t_disabled /. float_of_int niter *. 1e9);
  Format.printf "untraced run: %a" Experiments.Driver.pp_summary plain_sum;
  Format.printf "traced run:   %a" Experiments.Driver.pp_summary traced_sum;
  let required =
    [ "stage.load_all"; "stage.miss_matrix"; "stage.subset"; "stage.traces";
      "experiment" ]
  in
  let has_span name =
    (List.mem name trace_names, Printf.sprintf "trace JSON has no %s span" name)
  in
  let longest name =
    List.fold_left
      (fun m (e : Obs.event) ->
        if String.equal e.name name then Float.max m e.dur_us else m)
      0. events
  in
  let ordered name =
    ( (match List.assoc_opt name stats with
      | Some s -> s.p50 <= s.p95 && s.p95 <= s.max && s.max = longest name
      | None -> false),
      Printf.sprintf "%s statistics not p50 <= p95 <= max = longest event" name
    )
  in
  let nexperiments = List.length Experiments.Driver.all in
  let experiment_count =
    Option.fold ~none:0 ~some:(fun (s : Obs.stats) -> s.count)
      (List.assoc_opt "experiment" stats)
  in
  Printf.printf "span statistics: %d names, experiment count %d\n"
    (List.length stats) experiment_count;
  report ~gate:"obs-smoke"
    ~ok:
      (Printf.sprintf "obs-smoke OK: byte-identical tables, %d spans exported"
         nevents)
    ([
       ( String.equal traced_out plain_out,
         "traced run tables differ from untraced run" );
       (plain_sum.failed = 0, "untraced run had permanent failures");
       (traced_sum.failed = 0, "traced run had permanent failures");
       (nevents > 0, "no spans were recorded");
       (t_disabled < 2.0, "disabled spans cost far more than a branch");
       ( experiment_count = nexperiments,
         Printf.sprintf "span statistics count %d experiments, expected %d"
           experiment_count nexperiments );
     ]
    @ List.map has_span required
    @ List.map ordered required)

(* Strip "-j N" out of the argument list, configuring the pool. *)
let rec parse_flags acc = function
  | [] -> List.rev acc
  | "-j" :: n :: rest | "--jobs" :: n :: rest -> (
    match int_of_string_opt n with
    | Some jobs when jobs >= 1 ->
      Par.Pool.set_jobs jobs;
      parse_flags acc rest
    | _ ->
      Printf.eprintf "bad -j argument %S\n" n;
      exit 1)
  | [ "-j" ] | [ "--jobs" ] ->
    Printf.eprintf "-j needs an argument\n";
    exit 1
  | x :: rest -> parse_flags (x :: acc) rest

let () =
  match parse_flags [] (List.tl (Array.to_list Sys.argv)) with
  | [ "perf-smoke" ] -> exit (perf_smoke (Par.Pool.effective_jobs ()))
  | [ "obs-smoke" ] -> exit (obs_smoke ())
  | [ "chaos-smoke" ] -> exit (chaos_smoke 1933)
  | [ "chaos-smoke"; seed ] -> (
    match int_of_string_opt seed with
    | Some seed -> exit (chaos_smoke seed)
    | None ->
      Printf.eprintf "bad chaos-smoke seed %S\n" seed;
      exit 1)
  | args ->
    if args <> [] then
      Printf.eprintf "unknown subcommand %S\n" (String.concat " " args);
    prerr_endline
      "usage: main.exe [-j N] (perf-smoke | chaos-smoke [SEED] | obs-smoke)";
    exit 1
