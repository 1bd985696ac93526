type t = {
  wl : Workloads.Workload.t;
  prog : Mips.Program.t;
  decoded : Sim.Decode.t;
  analyses : Cfg.Analysis.t array;
  profile : Sim.Profile.t;
  db : Predict.Database.t;
}

(* Version tag of persistently cached edge profiles.  The key is the
   (program, dataset) pair by content, so recompiling an unchanged
   workload still hits; bump the tag when the simulator's observable
   behaviour or [Sim.Profile.t] changes. *)
let profile_version = "profile/1"

let profile_for ~decoded prog ds =
  Cache.Store.memo ~version:profile_version ~key:(prog, ds) (fun () ->
      Sim.Profile.run ~decoded prog ds)

(* Both memo tables are shared across domains.  The mutexes guard the
   tables only; the pipeline itself (compile, analyse, profile) runs
   unlocked.  Two domains racing on the same key at worst duplicate a
   deterministic computation, and last-write-wins keeps the table
   consistent. *)
let cache : (string, t) Hashtbl.t = Hashtbl.create 32
let cache_mutex = Mutex.create ()

let load wl =
  let name = wl.Workloads.Workload.name in
  match Mutex.protect cache_mutex (fun () -> Hashtbl.find_opt cache name) with
  | Some t -> t
  | None ->
    (* chaos hooks: an armed injector may delay this pipeline or raise
       inside it, exercising pool survival and supervisor retries *)
    Robust.Inject.delay ~label:("load:" ^ name);
    Robust.Inject.raise_in_task ~label:("load:" ^ name);
    let prog =
      Obs.span ~name:"compile" ~attrs:[ ("workload", name) ] (fun () ->
          Workloads.Workload.compile wl)
    in
    let decoded = Sim.Decode.of_program prog in
    let analyses = Cfg.Analysis.of_program prog in
    let profile =
      Obs.span ~name:"profile" ~attrs:[ ("workload", name) ] (fun () ->
          profile_for ~decoded prog (Workloads.Workload.primary_dataset wl))
    in
    let db =
      Predict.Database.make prog analyses ~taken:profile.taken
        ~fall:profile.fall
    in
    let t = { wl; prog; decoded; analyses; profile; db } in
    Mutex.protect cache_mutex (fun () -> Hashtbl.replace cache name t);
    t

let load_all () =
  Obs.span ~name:"stage.load_all" (fun () ->
      Par.Pool.parallel_map_list (Par.Pool.get ()) load Workloads.Registry.all)

let load_named names =
  Par.Pool.parallel_map_list (Par.Pool.get ())
    (fun n -> load (Workloads.Registry.find n))
    names

let db_cache : (string * string, Predict.Database.t) Hashtbl.t =
  Hashtbl.create 64

let db_cache_mutex = Mutex.create ()

let db_for t ds =
  (* the primary dataset's database is the one [load] built *)
  if ds.Sim.Dataset.name = (Workloads.Workload.primary_dataset t.wl).name then
    t.db
  else
    let key = (t.wl.name, ds.name) in
    match
      Mutex.protect db_cache_mutex (fun () -> Hashtbl.find_opt db_cache key)
    with
    | Some db -> db
    | None ->
      let profile = profile_for ~decoded:t.decoded t.prog ds in
      let db =
        Predict.Database.make t.prog t.analyses ~taken:profile.taken
          ~fall:profile.fall
      in
      Mutex.protect db_cache_mutex (fun () -> Hashtbl.replace db_cache key db);
      db

let reset () =
  Mutex.protect cache_mutex (fun () -> Hashtbl.reset cache);
  Mutex.protect db_cache_mutex (fun () -> Hashtbl.reset db_cache);
  Workloads.Workload.reset_cache ()

let prediction_bits t predictor =
  let bits =
    Array.map
      (fun (p : Mips.Program.proc) -> Array.make (Array.length p.body) false)
      t.prog.procs
  in
  Array.iter
    (fun (br : Predict.Database.branch) ->
      bits.(br.proc).(br.pc) <- predictor br)
    t.db.branches;
  bits
