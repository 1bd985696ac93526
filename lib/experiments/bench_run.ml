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

let cache : (string, t) Cache.Memo.t = Cache.Memo.create ()

let load wl =
  let name = wl.Workloads.Workload.name in
  Cache.Memo.find_or_add cache name (fun () ->
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
      { wl; prog; decoded; analyses; profile; db })

let load_all () =
  Obs.span ~name:"stage.load_all" (fun () ->
      Par.Pool.parallel_map_list (Par.Pool.get ()) load Workloads.Registry.all)

let load_named names =
  Par.Pool.parallel_map_list (Par.Pool.get ())
    (fun n -> load (Workloads.Registry.find n))
    names

let db_cache : (string * string, Predict.Database.t) Cache.Memo.t =
  Cache.Memo.create ()

let db_for t ds =
  (* the primary dataset's database is the one [load] built *)
  if ds.Sim.Dataset.name = (Workloads.Workload.primary_dataset t.wl).name then
    t.db
  else
    Cache.Memo.find_or_add db_cache (t.wl.name, ds.name) (fun () ->
        let profile = profile_for ~decoded:t.decoded t.prog ds in
        Predict.Database.make t.prog t.analyses ~taken:profile.taken
          ~fall:profile.fall)

let reset () =
  Cache.Memo.clear cache;
  Cache.Memo.clear db_cache;
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
