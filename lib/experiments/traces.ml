let predictors_for (r : Bench_run.t) =
  let order = Predict.Combined.paper_order in
  [
    ("Loop+Rand", Bench_run.prediction_bits r Predict.Combined.loop_rand_predict);
    ("Heuristic", Bench_run.prediction_bits r (Predict.Combined.predict order));
    ("Perfect", Bench_run.prediction_bits r Predict.Combined.perfect_predict);
  ]

let trace_cache : (string, Tracing.Ipbc.distribution list) Cache.Memo.t =
  Cache.Memo.create ()

(* Bump when the predictors, the break accounting, or
   [Tracing.Ipbc.distribution] change. *)
let traces_version = "traces/1"

let distributions name =
  Cache.Memo.find_or_add trace_cache name (fun () ->
      (* chaos hooks, as in [Bench_run.load] *)
      Robust.Inject.delay ~label:("traces:" ^ name);
      Robust.Inject.raise_in_task ~label:("traces:" ^ name);
      let r = Bench_run.load (Workloads.Registry.find name) in
      let ds = Workloads.Workload.primary_dataset r.wl in
      let predictors = predictors_for r in
      (* the key carries the prediction bits themselves, so a predictor
         change re-simulates without a version bump *)
      Cache.Store.memo ~version:traces_version ~key:(r.prog, ds, predictors)
        (fun () ->
          List.map Tracing.Ipbc.of_result
            (Sim.Trace_run.run ~decoded:r.decoded r.prog ds predictors)))

let warm () =
  Obs.span ~name:"stage.traces" (fun () ->
      ignore
        (Par.Pool.parallel_map_list (Par.Pool.get ())
           (fun (wl : Workloads.Workload.t) -> distributions wl.name)
           (Workloads.Registry.traced ())))

let reset () = Cache.Memo.clear trace_cache

let lengths = [ 10; 20; 50; 100; 200; 500; 1000; 2000; 5000; 10000 ]

let graph_for ppf name =
  let dists = distributions name in
  Format.fprintf ppf
    "Graph (%s): cumulative %% of executed instructions in sequences@." name;
  Format.fprintf ppf "shorter than the given length, per predictor@.@.";
  Texttab.render ppf
    ~header:[ "predictor"; "miss%"; "ipbc"; "div.len" ]
    (List.map
       (fun (d : Tracing.Ipbc.distribution) ->
         [
           d.label;
           Texttab.pct d.miss_rate;
           Printf.sprintf "%.0f" d.ipbc;
           string_of_int (Tracing.Ipbc.dividing_length d);
         ])
       dists);
  Format.fprintf ppf "@.";
  Texttab.render ppf
    ~header:
      ("len <"
      :: List.map (fun (d : Tracing.Ipbc.distribution) -> d.label) dists)
    (List.map
       (fun len ->
         string_of_int len
         :: List.map
              (fun d ->
                Texttab.pct (Tracing.Ipbc.fraction_below d len))
              dists)
       lengths);
  if String.equal name "spice2g6" then begin
    Format.fprintf ppf
      "@.Graph 5 (%s): cumulative %% of BREAKS in sequences shorter@." name;
    Format.fprintf ppf "than the given length (the skew behind the IPBC bias)@.@.";
    Texttab.render ppf
      ~header:
        ("len <"
        :: List.map (fun (d : Tracing.Ipbc.distribution) -> d.label) dists)
      (List.map
         (fun len ->
           string_of_int len
           :: List.map
                (fun (d : Tracing.Ipbc.distribution) ->
                  let rec go i prev =
                    if i >= Array.length d.by_breaks then prev
                    else begin
                      let bound, frac = d.by_breaks.(i) in
                      if bound > len then prev else go (i + 1) frac
                    end
                  in
                  Texttab.pct (go 0 0.))
                dists)
         lengths)
  end

let graphs4_11 ppf =
  warm ();
  List.iter
    (fun (wl : Workloads.Workload.t) ->
      graph_for ppf wl.name;
      Format.fprintf ppf "@.")
    (Workloads.Registry.traced ())

let graph12 ppf =
  Format.fprintf ppf
    "Graph 12: model y = 1 - (1-m)^s (unit blocks, independent branches)@.@.";
  let misses = List.init 12 (fun i -> 0.025 *. float_of_int (i + 1)) in
  let seqlens = [ 1; 2; 5; 10; 20; 50; 100; 200 ] in
  Texttab.render ppf
    ~header:
      ("m \\ s" :: List.map string_of_int seqlens)
    (List.map
       (fun m ->
         Texttab.pct1 m
         :: List.map
              (fun s -> Texttab.pct (Tracing.Ipbc.model ~miss_rate:m s))
              seqlens)
       misses);
  Format.fprintf ppf
    "@.The payoff in sequence length comes from pushing m below ~15%%.@."
