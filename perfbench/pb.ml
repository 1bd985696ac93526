(* Worker process of the repository benchmark; perfbench/run.py drives
   it and turns its output into metrics.

     pb.exe setup --workload W
     pb.exe suite --workload W --seed N [--tables DIR] [--trace FILE]

   [setup] prepares the result store for workload W and exits: it
   clears the store for paper-cold, clears and fills it for paper-warm,
   and does nothing beyond process start-up for quick-nocache.

   [suite] runs the whole experiment suite once, in fresh in-memory
   state: Driver.prewarm, then every experiment through Driver.run_list,
   one at a time, in an order permuted by the seed.  Each experiment's
   table is compared byte-for-byte with its reference.  The last line
   of standard output is one JSON object: wall and CPU time of the
   suite, which experiments failed or mismatched, and exact work
   counts.  [--tables DIR] writes each table to DIR/<id>.out.

   [--trace FILE] records spans: the ones inside lib/ and one per
   prewarm and per experiment.  After the suite it replays the calls
   into each layer's public functions on the same inputs, each inside
   a "layer.*" span, adds the per-layer figures to the JSON object, and
   writes the Chrome trace to FILE. *)

module Driver = Experiments.Driver

type workload = {
  name : string;
  quick : bool;  (** quick suite: the subset walk capped *)
  jobs : int;
  store : bool;  (** result store enabled *)
  fill : bool;  (** set-up fills the store *)
}

let workloads =
  [
    { name = "paper-cold"; quick = false; jobs = 2; store = true; fill = false };
    { name = "paper-warm"; quick = false; jobs = 2; store = true; fill = true };
    { name = "quick-nocache"; quick = true; jobs = 1; store = false; fill = false };
  ]

(* The quick suite's subset cap (Driver's quick_run of graph2) and the
   full walk's trial count, C(22,11). *)
let quick_trials = 20_000
let full_trials = 705_432

let state_dir = ".perfbench"
let store_dir = Filename.concat state_dir "store"
let sweep_store_dir = Filename.concat state_dir "sweep-store"

let now = Unix.gettimeofday

let cpu () =
  let t = Unix.times () in
  t.tms_utime +. t.tms_stime

let configure w =
  Par.Pool.set_jobs w.jobs;
  Cache.Store.set_dir store_dir;
  Cache.Store.set_enabled w.store

(* ---- a minimal JSON writer ---- *)

type json =
  | I of int
  | F of float
  | B of bool
  | S of string
  | L of json list
  | O of (string * json) list

let rec write_json buf = function
  | I n -> Buffer.add_string buf (string_of_int n)
  | F x ->
    Buffer.add_string buf
      (if Float.is_finite x then Printf.sprintf "%.17g" x else "0")
  | B b -> Buffer.add_string buf (string_of_bool b)
  | S s ->
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'
  | L xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        write_json buf x)
      xs;
    Buffer.add_char buf ']'
  | O kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        write_json buf (S k);
        Buffer.add_char buf ':';
        write_json buf v)
      kvs;
    Buffer.add_char buf '}'

let print_json j =
  let buf = Buffer.create 4096 in
  write_json buf j;
  print_endline (Buffer.contents buf)

(* ---- set-up ---- *)

(* Every store entry a full suite run writes: the primary profiles, the
   traces, the subset walk and the other datasets' profiles. *)
let fill () =
  ignore (Experiments.Bench_run.load_all ());
  Experiments.Traces.warm ();
  ignore (Experiments.Orderings.subset_result ());
  ignore
    (Par.Pool.parallel_map_list (Par.Pool.get ())
       (fun (wl : Workloads.Workload.t) ->
         let r = Experiments.Bench_run.load wl in
         List.iter
           (fun ds -> ignore (Experiments.Bench_run.db_for r ds))
           wl.datasets)
       Workloads.Registry.all)

let setup w =
  if w.store then Cache.Store.clear ();
  if w.fill then fill ()

(* ---- the suite ---- *)

let permute seed l =
  let a = Array.of_list l in
  let st = Random.State.make [| seed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let read_file path = In_channel.with_open_bin path In_channel.input_all

let reference w (e : Driver.experiment) =
  let path =
    if e.id = "graph2" && not w.quick then "perfbench/ref/graph2.full.expected"
    else Filename.concat "test/golden" (e.id ^ ".expected")
  in
  try Some (read_file path) with Sys_error _ -> None

(* Driver.run_list frames each table as "==== title ====", a blank
   line, the table, and a newline. *)
let framed (e : Driver.experiment) table =
  Printf.sprintf "==== %s ====\n\n%s\n" e.title table

let unframed (e : Driver.experiment) text =
  let prefix = Printf.sprintf "==== %s ====\n\n" e.title in
  let pl = String.length prefix and tl = String.length text in
  if tl > pl && String.sub text 0 pl = prefix && text.[tl - 1] = '\n' then
    String.sub text pl (tl - pl - 1)
  else text

type outcome = {
  e : Driver.experiment;
  seconds : float;
  completed : bool;  (** not permanently failed *)
  matches : bool;  (** completed and equal to its reference *)
  text : string;
}

let run_experiment w (e : Driver.experiment) =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  let t0 = now () in
  let summary =
    Obs.span ~name:("experiments." ^ e.id) (fun () ->
        Driver.run_list ~quick:w.quick ~warm:false [ e ] ppf)
  in
  let seconds = now () -. t0 in
  Format.pp_print_flush ppf ();
  let text = Buffer.contents buf in
  let completed = summary.failed = 0 in
  let matches =
    completed
    &&
    match reference w e with
    | Some table -> String.equal text (framed e table)
    | None -> false
  in
  { e; seconds; completed; matches; text }

(* The full subset walk must cover every 11-subset of the 22
   benchmarks, and its win counts must sum to the trial count.  Read
   back after the timed window (from the store, where the suite put
   it). *)
let subset_sound w =
  w.quick
  ||
  let r = Experiments.Orderings.subset_result () in
  let nb = List.length (Workloads.Registry.without [ "matrix300" ]) in
  let n = Predict.Subset.choose nb ((nb + 1) / 2) in
  n = full_trials && r.trials = n
  && Array.fold_left (fun a (_, c) -> a + c) 0 r.wins = n

let counter name =
  Option.value ~default:0 (List.assoc_opt name (Obs.Metrics.counters ()))

let dir_stats d =
  match Sys.readdir d with
  | exception Sys_error _ -> (0, 0)
  | names ->
    Array.fold_left
      (fun (files, bytes) n ->
        match Unix.stat (Filename.concat d n) with
        | { st_kind = S_REG; st_size; _ } -> (files + 1, bytes + st_size)
        | _ -> (files, bytes)
        | exception Unix.Unix_error _ -> (files, bytes))
      (0, 0) names

(* Exact work counts of the suite itself; run.py requires them to
   repeat exactly between suite runs of the same code. *)
let suite_counts w =
  let entries, bytes = if w.store then dir_stats store_dir else (0, 0) in
  let r = Robust.Counters.snapshot () in
  [
    ("cache.hit", counter "cache.hit");
    ("cache.miss", counter "cache.miss");
    ("cache.corrupt", counter "cache.corrupt");
    ("cache.write", counter "cache.write");
    ("store.entries", entries);
    ("store.bytes", bytes);
    ("pool.jobs", counter "pool.jobs");
    ("pool.tasks", counter "pool.tasks");
    ("robust.retries", r.retries);
    ("robust.timeouts", r.timeouts);
    ("robust.fuel_exhausted", r.fuel_exhausted);
    ("robust.task_failures", r.task_failures);
  ]

(* ---- the per-layer replay (traced runs only) ---- *)

type timing = {
  times : (string, float) Hashtbl.t;  (** layer -> busy seconds *)
  mutable fan_wall : float;
  mutable fan_cpu : float;
}

let timed l name f =
  let t0 = now () in
  let r = Obs.span ~name:("layer." ^ name) f in
  let dt = now () -. t0 in
  Hashtbl.replace l.times name
    (dt +. Option.value ~default:0. (Hashtbl.find_opt l.times name));
  r

(* A call that fans out on the default pool: its CPU time over all
   domains feeds par.busy_ratio. *)
let fan l name f =
  let t0 = now () and c0 = cpu () in
  let r = timed l name f in
  l.fan_wall <- l.fan_wall +. (now () -. t0);
  l.fan_cpu <- l.fan_cpu +. (cpu () -. c0);
  r

let rate n s = if s > 0. then float_of_int n /. s else 0.

(* Replays, on this workload's inputs and settings, the calls the
   suite makes into each layer: the prewarm fan-out against the
   workload's store state, then per workload the compile, the CFG
   analyses, the decodes, the profiles of every dataset, the branch
   databases, the traces and IPBC distributions of the traced
   workloads and the layout ablation's hooked runs, then the miss
   matrix and the subset walk, and last the store's write and read
   cost on the products gathered, in a private store directory. *)
let replay w =
  let l = { times = Hashtbl.create 32; fan_wall = 0.; fan_cpu = 0. } in
  Experiments.Bench_run.reset ();
  Experiments.Orderings.reset ();
  Experiments.Traces.reset ();
  Workloads.Workload.reset_cache ();
  if w.store && not w.fill then Cache.Store.clear ();
  ignore (fan l "par.load_all" Experiments.Bench_run.load_all);
  fan l "par.traces_warm" Experiments.Traces.warm;
  Workloads.Workload.reset_cache ();
  let insns = ref 0 and blocks = ref 0 and branches = ref 0 in
  let profile_instrs = ref 0 and trace_instrs = ref 0 and hook_instrs = ref 0 in
  let branch_events = ref 0 and breaks = ref 0 in
  let cache_items = ref [] in
  let item ~version ~key v =
    let memo compute = ignore (Cache.Store.memo ~version ~key compute) in
    cache_items :=
      ( (fun () -> memo (fun () -> v)),
        fun () -> memo (fun () -> failwith "perfbench: store entry missing") )
      :: !cache_items
  in
  let primary_dbs = ref [] in
  List.iter
    (fun (wl : Workloads.Workload.t) ->
      let prog = timed l "minic.compile" (fun () -> Workloads.Workload.compile wl) in
      insns := !insns + Mips.Program.code_size prog;
      let analyses = timed l "cfg.analysis" (fun () -> Cfg.Analysis.of_program prog) in
      Array.iter
        (fun (a : Cfg.Analysis.t) -> blocks := !blocks + a.graph.nblocks)
        analyses;
      let decoded = timed l "sim.decode" (fun () -> Sim.Decode.of_program prog) in
      let profile_on ds run =
        let p : Sim.Profile.t = timed l "sim.profile" run in
        profile_instrs := !profile_instrs + p.stats.instr_count;
        branch_events := !branch_events + Sim.Profile.branch_execs p;
        item ~version:"perfbench.profile/1" ~key:(prog, ds) p;
        let db =
          timed l "core.database" (fun () ->
              Predict.Database.make prog analyses ~taken:p.taken ~fall:p.fall)
        in
        branches := !branches + Array.length db.branches;
        (p, db)
      in
      let primary = Workloads.Workload.primary_dataset wl in
      let profile, db =
        profile_on primary (fun () -> Sim.Profile.run_decoded decoded primary)
      in
      List.iter
        (fun ds ->
          ignore (profile_on ds (fun () -> Sim.Profile.run ~decoded prog ds)))
        (List.tl wl.datasets);
      if wl.name <> "matrix300" then primary_dbs := db :: !primary_dbs;
      if wl.traced then begin
        let predictors =
          Experiments.Traces.predictors_for
            { Experiments.Bench_run.wl; prog; decoded; analyses; profile; db }
        in
        let results =
          timed l "sim.trace" (fun () ->
              Sim.Trace_run.run ~decoded prog primary predictors)
        in
        (match results with
        | r :: _ ->
          trace_instrs := !trace_instrs + r.instr_count;
          branch_events := !branch_events + r.cond_execs
        | [] -> ());
        List.iter
          (fun (r : Sim.Trace_run.result) -> breaks := !breaks + r.breaks)
          results;
        let dists =
          timed l "tracing.ipbc" (fun () ->
              List.map Tracing.Ipbc.of_result results)
        in
        item ~version:"perfbench.traces/1" ~key:(prog, primary, predictors) dists
      end;
      (* the layout ablation: lay out along the paper order's
         predictions, then count taken branches before and after *)
      let predictions = Hashtbl.create 512 in
      Array.iter
        (fun (br : Predict.Database.branch) ->
          Hashtbl.replace predictions (br.proc, br.block)
            (Predict.Combined.predict Predict.Combined.paper_order br))
        db.branches;
      let laid =
        timed l "core.layout" (fun () ->
            Predict.Layout.apply prog ~predict:(fun ~proc ~block ->
                Option.value ~default:false
                  (Hashtbl.find_opt predictions (proc, block))))
      in
      (* Machine.run decodes its program again: sim.decode counts that
         decode once more here, and sim.hook includes it *)
      let hooked p =
        ignore (timed l "sim.decode" (fun () -> Sim.Decode.of_program p));
        let _, execs, (stats : Sim.Machine.stats) =
          timed l "sim.hook" (fun () -> Predict.Layout.taken_transfers p primary)
        in
        hook_instrs := !hook_instrs + stats.instr_count;
        branch_events := !branch_events + execs;
        stats.checksum
      in
      if hooked prog <> hooked laid then
        failwith (wl.name ^ ": code layout changed the program's checksum"))
    Workloads.Registry.all;
  let dbs = Array.of_list (List.rev !primary_dbs) in
  let m = fan l "core.miss_matrix" (fun () -> Predict.Ordering.miss_matrix dbs) in
  let cells = Array.fold_left (fun a row -> a + Array.length row) 0 m in
  let k = (Array.length dbs + 1) / 2 in
  let max_trials = if w.quick then Some quick_trials else None in
  let subset =
    fan l "core.subset" (fun () -> Predict.Subset.run ~k ?max_trials m)
  in
  if Array.fold_left (fun a (_, c) -> a + c) 0 subset.wins <> subset.trials
  then failwith "subset walk: win counts do not sum to the trial count";
  item ~version:"perfbench.subset/1" ~key:(m, k, max_trials) subset;
  let store_bytes =
    if not w.store then 0
    else begin
      let main = Cache.Store.dir () in
      Cache.Store.set_dir sweep_store_dir;
      Cache.Store.clear ();
      let items = List.rev !cache_items in
      timed l "cache.write" (fun () -> List.iter (fun (wr, _) -> wr ()) items);
      let _, bytes = dir_stats sweep_store_dir in
      timed l "cache.read" (fun () -> List.iter (fun (_, rd) -> rd ()) items);
      Cache.Store.clear ();
      Cache.Store.set_dir main;
      bytes
    end
  in
  let t name = Option.value ~default:0. (Hashtbl.find_opt l.times name) in
  let minstr n s = rate n s /. 1e6 in
  let jobs = Par.Pool.effective_jobs () in
  let layers =
    [
      ("minic.compile_s", F (t "minic.compile"));
      ("minic.insns_per_s", F (rate !insns (t "minic.compile")));
      ("cfg.analysis_s", F (t "cfg.analysis"));
      ("sim.decode_s", F (t "sim.decode"));
      ("sim.profile_s", F (t "sim.profile"));
      ("sim.profile_minstr_per_s", F (minstr !profile_instrs (t "sim.profile")));
      ("sim.trace_s", F (t "sim.trace"));
      ("sim.trace_minstr_per_s", F (minstr !trace_instrs (t "sim.trace")));
      ("sim.hook_s", F (t "sim.hook"));
      ("sim.hook_minstr_per_s", F (minstr !hook_instrs (t "sim.hook")));
      ("core.database_s", F (t "core.database"));
      ("core.miss_matrix_s", F (t "core.miss_matrix"));
      ("core.cells_per_s", F (rate cells (t "core.miss_matrix")));
      ("core.subset_s", F (t "core.subset"));
      ("core.trials_per_s", F (rate subset.trials (t "core.subset")));
      ("core.layout_s", F (t "core.layout"));
      ("tracing.ipbc_s", F (t "tracing.ipbc"));
      ("cache.read_s", F (t "cache.read"));
      ("cache.write_s", F (t "cache.write"));
      ( "par.busy_ratio",
        F
          (if l.fan_wall > 0. then l.fan_cpu /. (l.fan_wall *. float_of_int jobs)
           else 0.) );
    ]
  in
  let counts =
    [
      ("minic.insns", !insns);
      ("cfg.blocks", !blocks);
      ("sim.instrs", !profile_instrs + !trace_instrs + !hook_instrs);
      ("sim.branch_events", !branch_events);
      ("core.branches", !branches);
      ("core.cells", cells);
      ("core.trials", subset.trials);
      ("tracing.breaks", !breaks);
      ("cache.bytes_written", store_bytes);
      ("cache.bytes_read", store_bytes);
    ]
  in
  (layers, counts)

(* ---- entry point ---- *)

let run_suite w ~seed ~tables ~trace =
  if trace <> None then Obs.enable ();
  let w0 = now () and c0 = cpu () in
  let p0 = now () in
  let prewarm_ok =
    Obs.span ~name:"experiments.prewarm" (fun () ->
        match (Robust.Supervise.run ~label:"prewarm" Driver.prewarm).status with
        | Failed fault ->
          Robust.Fault.pp_banner Format.err_formatter fault;
          false
        | Completed | Recovered _ -> true)
  in
  let prewarm_s = now () -. p0 in
  let outcomes = List.map (run_experiment w) (permute seed Driver.all) in
  let wall = now () -. w0 and cpu_s = cpu () -. c0 in
  let counts = suite_counts w in
  let sound = subset_sound w in
  Option.iter
    (fun dir ->
      List.iter
        (fun o ->
          Out_channel.with_open_bin
            (Filename.concat dir (o.e.id ^ ".out"))
            (fun oc -> output_string oc (unframed o.e o.text)))
        outcomes)
    tables;
  let bad =
    List.filter_map
      (fun o ->
        if o.matches && (sound || o.e.id <> "graph2") then None
        else Some (S o.e.id))
      outcomes
  in
  let traced =
    match trace with
    | None -> []
    | Some file ->
      let layers, replay_counts = replay w in
      let events = List.length (Obs.events ()) in
      Obs.write_trace file;
      let experiments =
        ("experiments.prewarm_s", F prewarm_s)
        :: List.map
             (fun o -> ("experiments." ^ o.e.id ^ "_s", F o.seconds))
             (List.sort (fun a b -> compare a.e.id b.e.id) outcomes)
      in
      [
        ("layers", O (layers @ experiments @ [ ("obs.events", I events) ]));
        ("replay_counts", O (List.map (fun (k, v) -> (k, I v)) replay_counts));
      ]
  in
  print_json
    (O
       ([
          ("workload", S w.name);
          ("seed", I seed);
          ("wall_s", F wall);
          ("cpu_s", F cpu_s);
          ("prewarm_ok", B prewarm_ok);
          ("attempted", I (List.length outcomes));
          ("failed", I (List.length (List.filter (fun o -> not o.completed) outcomes)));
          ("bad", L bad);
          ("counts", O (List.map (fun (k, v) -> (k, I v)) counts));
          ( "fingerprint",
            O
              [
                ("ocaml", S Sys.ocaml_version);
                ("recommended_domains", I (Domain.recommended_domain_count ()));
                ("jobs", I (Par.Pool.effective_jobs ()));
              ] );
        ]
       @ traced))

let usage () =
  prerr_endline
    "usage: pb.exe (setup | suite) --workload W [--seed N] [--tables DIR] \
     [--trace FILE]";
  exit 1

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opts acc = function
    | key :: v :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
      opts ((String.sub key 2 (String.length key - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  match args with
  | cmd :: rest -> (
    let o = opts [] rest in
    let w =
      match List.assoc_opt "workload" o with
      | Some n -> (
        match List.find_opt (fun w -> w.name = n) workloads with
        | Some w -> w
        | None ->
          prerr_endline ("pb.exe: unknown workload " ^ n);
          exit 1)
      | None -> usage ()
    in
    configure w;
    match cmd with
    | "setup" -> setup w
    | "suite" ->
      let seed = Option.fold ~none:1 ~some:int_of_string (List.assoc_opt "seed" o) in
      run_suite w ~seed ~tables:(List.assoc_opt "tables" o)
        ~trace:(List.assoc_opt "trace" o)
    | _ -> usage ())
  | [] -> usage ()
