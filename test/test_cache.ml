(* Tests for the persistent result cache: memo hit/miss behaviour,
   the enabled switch, key/version separation, corruption tolerance
   and clearing.  Every test redirects the store to its own temporary
   directory so nothing touches the repo's [_cache/]. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let with_temp_store f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ballarus_cache_test_%d_%d" (Unix.getpid ())
         (Random.bits ()))
  in
  let old_dir = Cache.Store.dir () in
  let old_enabled = Cache.Store.enabled () in
  Cache.Store.set_dir dir;
  Cache.Store.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Cache.Store.clear ();
      (try Unix.rmdir dir with Unix.Unix_error _ | Sys_error _ -> ());
      Cache.Store.set_dir old_dir;
      Cache.Store.set_enabled old_enabled)
    (fun () -> f dir)

let entry_files dir =
  if Sys.file_exists dir then
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".bin")
    |> List.map (Filename.concat dir)
  else []

let test_memo_roundtrip () =
  with_temp_store (fun dir ->
      let calls = ref 0 in
      let compute () =
        incr calls;
        [| 1; 2; 3 |]
      in
      let a = Cache.Store.memo ~version:"t/1" ~key:("k", 7) compute in
      let b = Cache.Store.memo ~version:"t/1" ~key:("k", 7) compute in
      checki "computed once" 1 !calls;
      checkb "identical values" true (a = b);
      checki "one entry on disk" 1 (List.length (entry_files dir));
      (* distinct keys and distinct versions are distinct entries *)
      let _ = Cache.Store.memo ~version:"t/1" ~key:("k", 8) compute in
      let _ = Cache.Store.memo ~version:"t/2" ~key:("k", 7) compute in
      checki "three computes total" 3 !calls;
      checki "three entries on disk" 3 (List.length (entry_files dir)))

let test_disabled_bypasses () =
  with_temp_store (fun dir ->
      Cache.Store.set_enabled false;
      let calls = ref 0 in
      let compute () =
        incr calls;
        42
      in
      let a = Cache.Store.memo ~version:"t/1" ~key:"x" compute in
      let b = Cache.Store.memo ~version:"t/1" ~key:"x" compute in
      checki "both values correct" 42 a;
      checki "both values correct" 42 b;
      checki "computed every time" 2 !calls;
      checki "nothing written" 0 (List.length (entry_files dir)))

let corrupt path garbage =
  let oc = open_out_bin path in
  output_string oc garbage;
  close_out oc

let test_corrupt_entry_recomputed () =
  with_temp_store (fun dir ->
      Cache.Store.reset_recovery ();
      let calls = ref 0 in
      let compute () =
        incr calls;
        "payload"
      in
      let _ = Cache.Store.memo ~version:"t/1" ~key:0 compute in
      let path =
        match entry_files dir with
        | [ p ] -> p
        | l -> Alcotest.failf "expected one entry, found %d" (List.length l)
      in
      (* flipped payload bytes: digest check must reject the entry *)
      corrupt path "ballarus-cache/1\nnot-a-digest\ngarbage";
      let v = Cache.Store.memo ~version:"t/1" ~key:0 compute in
      Alcotest.(check string) "recomputed value" "payload" v;
      checki "recompute happened" 2 !calls;
      checki "quarantine counted" 1
        (Cache.Store.recovery ()).corrupt_quarantined;
      (* truncated entry *)
      corrupt path "ballarus-c";
      let v = Cache.Store.memo ~version:"t/1" ~key:0 compute in
      Alcotest.(check string) "recomputed after truncation" "payload" v;
      checki "recompute happened again" 3 !calls;
      checki "second quarantine counted" 2
        (Cache.Store.recovery ()).corrupt_quarantined;
      (* the rewrite must have produced a readable entry again *)
      let v = Cache.Store.memo ~version:"t/1" ~key:0 compute in
      Alcotest.(check string) "hit after rewrite" "payload" v;
      checki "no further compute" 3 !calls;
      checki "no further quarantine" 2
        (Cache.Store.recovery ()).corrupt_quarantined)

let test_quarantine_deletes_bad_entry () =
  (* a corrupt entry must be removed from disk at detection time, so
     it cannot re-trip a later run that never recomputes this key *)
  with_temp_store (fun dir ->
      Cache.Store.reset_recovery ();
      let _ = Cache.Store.memo ~version:"t/1" ~key:1 (fun () -> "x") in
      let path =
        match entry_files dir with [ p ] -> p | _ -> Alcotest.fail "one entry"
      in
      corrupt path "garbage";
      let gone_during_recompute = ref false in
      let v =
        Cache.Store.memo ~version:"t/1" ~key:1 (fun () ->
            (* observe the disk mid-recompute: the bad entry must
               already have been deleted *)
            gone_during_recompute := not (Sys.file_exists path);
            "y")
      in
      Alcotest.(check string) "recomputed" "y" v;
      checkb "bad entry deleted before recompute" true !gone_during_recompute;
      checki "one quarantine" 1 (Cache.Store.recovery ()).corrupt_quarantined)

let test_injected_corruption_recovered () =
  (* the chaos hook corrupts a real on-disk entry; the store must
     detect, quarantine and recompute, and the counters must agree
     with the injector's *)
  with_temp_store (fun _dir ->
      Cache.Store.reset_recovery ();
      Robust.Inject.reset ();
      let calls = ref 0 in
      let compute () =
        incr calls;
        "v"
      in
      let _ = Cache.Store.memo ~version:"t/1" ~key:2 compute in
      Robust.Inject.force Robust.Inject.Cache_read 1;
      let v = Cache.Store.memo ~version:"t/1" ~key:2 compute in
      Alcotest.(check string) "recovered value" "v" v;
      checki "recomputed" 2 !calls;
      checki "injector fired" 1 (Robust.Inject.fired Robust.Inject.Cache_read);
      checki "quarantined exactly the injected fault" 1
        (Cache.Store.recovery ()).corrupt_quarantined;
      Robust.Inject.reset ())

let test_injected_write_failure_retried () =
  (* a failed write is retried with backoff; one injected failure costs
     a retry, not the entry *)
  with_temp_store (fun dir ->
      Cache.Store.reset_recovery ();
      Robust.Inject.reset ();
      Robust.Inject.force Robust.Inject.Cache_write 1;
      let _ = Cache.Store.memo ~version:"t/1" ~key:3 (fun () -> "w") in
      checki "write retried once" 1 (Cache.Store.recovery ()).write_retries;
      checki "no write abandoned" 0 (Cache.Store.recovery ()).write_failures;
      checki "entry still landed" 1 (List.length (entry_files dir));
      (* and it reads back *)
      let calls = ref 0 in
      let v =
        Cache.Store.memo ~version:"t/1" ~key:3 (fun () ->
            incr calls;
            "w")
      in
      Alcotest.(check string) "readable" "w" v;
      checki "served from disk" 0 !calls;
      Robust.Inject.reset ())

(* Regression for the leaked-tmp bug: when every write attempt failed,
   the abandoned [.tmp] staging file used to stay behind in the cache
   directory forever (the rename that would have consumed it never
   ran).  The permanent-failure handler now deletes it and counts the
   cleanup. *)
let test_permanent_write_failure_cleans_tmp () =
  with_temp_store (fun dir ->
      Cache.Store.reset_recovery ();
      Robust.Inject.reset ();
      (* fail all three attempts of the write backoff loop *)
      Robust.Inject.force Robust.Inject.Cache_write 3;
      let v = Cache.Store.memo ~version:"t/1" ~key:4 (fun () -> "lost") in
      Alcotest.(check string) "value still returned" "lost" v;
      let rec_ = Cache.Store.recovery () in
      checki "two retries then surrender" 2 rec_.write_retries;
      checki "one abandoned write" 1 rec_.write_failures;
      checki "orphaned tmp cleaned" 1 rec_.tmp_cleaned;
      checki "no entry landed" 0 (List.length (entry_files dir));
      let tmp_files =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".tmp")
      in
      checki "no tmp file left behind" 0 (List.length tmp_files);
      (* the key is still computable and cacheable afterwards *)
      let v = Cache.Store.memo ~version:"t/1" ~key:4 (fun () -> "found") in
      Alcotest.(check string) "recomputed" "found" v;
      checki "entry landed once writes heal" 1 (List.length (entry_files dir));
      Robust.Inject.reset ())

let test_clear_empties_store () =
  with_temp_store (fun dir ->
      let calls = ref 0 in
      let compute () =
        incr calls;
        ()
      in
      Cache.Store.memo ~version:"t/1" ~key:1 compute;
      Cache.Store.memo ~version:"t/1" ~key:2 compute;
      checki "two entries" 2 (List.length (entry_files dir));
      Cache.Store.clear ();
      checki "cleared" 0 (List.length (entry_files dir));
      Cache.Store.memo ~version:"t/1" ~key:1 compute;
      checki "recomputed after clear" 3 !calls)

(* a cached profile must be indistinguishable from a fresh one: run a
   real workload product through the store and compare *)
let test_profile_through_store () =
  with_temp_store (fun _dir ->
      let wl = Workloads.Registry.find "gcc" in
      let prog = Workloads.Workload.compile wl in
      let ds = Workloads.Workload.primary_dataset wl in
      let fresh = Sim.Profile.run prog ds in
      let compute () = Sim.Profile.run prog ds in
      let cold = Cache.Store.memo ~version:"t-prof/1" ~key:(prog, ds) compute in
      let warm = Cache.Store.memo ~version:"t-prof/1" ~key:(prog, ds) compute in
      checkb "cold = fresh" true
        (cold.stats = fresh.stats && cold.taken = fresh.taken
       && cold.fall = fresh.fall);
      checkb "warm (unmarshalled) = fresh" true
        (warm.stats = fresh.stats && warm.taken = fresh.taken
       && warm.fall = fresh.fall))

(* ---- Cache.Memo: the in-process tables ---- *)

let test_in_process_memo_once_per_key () =
  let t = Cache.Memo.create () in
  let calls = ref 0 in
  let get k = Cache.Memo.find_or_add t k (fun () -> incr calls; !calls) in
  checki "computed" 1 (get "a");
  checki "served" 1 (get "a");
  checki "other key computed" 2 (get "b");
  Cache.Memo.clear t;
  checki "recomputed after clear" 3 (get "a")

(* four domains all miss, then wait for each other inside [compute],
   so each computes its own value; all four must get the first one
   stored *)
let test_in_process_memo_race_one_value () =
  let t = Cache.Memo.create () in
  let arrived = Atomic.make 0 in
  let compute () =
    Atomic.incr arrived;
    while Atomic.get arrived < 4 do
      Domain.cpu_relax ()
    done;
    ref 0
  in
  let vs =
    List.init 4 (fun _ ->
        Domain.spawn (fun () -> Cache.Memo.find_or_add t () compute))
    |> List.map Domain.join
  in
  checki "every racer computed" 4 (Atomic.get arrived);
  List.iter (fun v -> checkb "one physical value" true (v == List.hd vs)) vs

(* one [reset_all] drops the pipeline's compile, load, non-primary
   database and trace tables *)
let test_reset_all_clears_pipeline_tables () =
  with_temp_store (fun _dir ->
      let wl = Workloads.Registry.find "xlisp" in
      let fill () =
        let r = Experiments.Bench_run.load wl in
        ( Workloads.Workload.compile wl,
          r,
          Experiments.Bench_run.db_for r (List.nth wl.datasets 1),
          Experiments.Traces.distributions wl.name )
      in
      let p1, r1, db1, d1 = fill () in
      let p2, r2, db2, d2 = fill () in
      checkb "memoised" true (p1 == p2 && r1 == r2 && db1 == db2 && d1 == d2);
      Cache.Memo.reset_all ();
      let p3, r3, db3, d3 = fill () in
      checkb "fresh compile" true (p3 != p1);
      checkb "fresh load" true (r3 != r1);
      checkb "fresh db_for" true (db3 != db1);
      checkb "fresh distributions" true (d3 != d1))

let () =
  Random.self_init ();
  Alcotest.run "cache"
    [
      ( "store",
        [
          Alcotest.test_case "memo roundtrip and key separation" `Quick
            test_memo_roundtrip;
          Alcotest.test_case "disabled store bypasses disk" `Quick
            test_disabled_bypasses;
          Alcotest.test_case "corrupt entries are recomputed" `Quick
            test_corrupt_entry_recomputed;
          Alcotest.test_case "quarantine deletes bad entry" `Quick
            test_quarantine_deletes_bad_entry;
          Alcotest.test_case "injected corruption recovered" `Quick
            test_injected_corruption_recovered;
          Alcotest.test_case "injected write failure retried" `Quick
            test_injected_write_failure_retried;
          Alcotest.test_case "permanent write failure cleans tmp" `Quick
            test_permanent_write_failure_cleans_tmp;
          Alcotest.test_case "clear empties the store" `Quick
            test_clear_empties_store;
          Alcotest.test_case "profile survives the store" `Quick
            test_profile_through_store;
        ] );
      ( "memo",
        [
          Alcotest.test_case "compute once per key" `Quick
            test_in_process_memo_once_per_key;
          Alcotest.test_case "racing domains share one value" `Quick
            test_in_process_memo_race_one_value;
          Alcotest.test_case "reset_all clears the pipeline tables" `Quick
            test_reset_all_clears_pipeline_tables;
        ] );
    ]
