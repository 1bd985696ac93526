(* Tests for the lib/par domain pool: fork-join correctness, result
   determinism across pool widths, exception propagation. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let with_pool jobs f =
  let p = Par.Pool.create ~jobs in
  Fun.protect ~finally:(fun () -> Par.Pool.shutdown p) (fun () -> f p)

let widths = [ 1; 2; 3; 4 ]

let test_jobs_clamped () =
  with_pool 0 (fun p -> checki "clamped to 1" 1 (Par.Pool.jobs p));
  with_pool 3 (fun p -> checki "width kept" 3 (Par.Pool.jobs p))

let test_run_covers_every_index () =
  List.iter
    (fun jobs ->
      with_pool jobs (fun p ->
          List.iter
            (fun n ->
              let hits = Array.make (max n 1) 0 in
              Par.Pool.run p n (fun i ->
                  (* each slot is written by exactly one task *)
                  hits.(i) <- hits.(i) + 1);
              Array.iter (fun h -> checki "hit exactly once" (min n 1) h)
                (if n = 0 then [| 0 |] else hits))
            [ 0; 1; 7; 64; 1000 ]))
    widths

let test_parallel_map_matches_sequential () =
  let input = Array.init 257 (fun i -> (i * 37) mod 101) in
  let f x = (x * x) + 1 in
  let expected = Array.map f input in
  List.iter
    (fun jobs ->
      with_pool jobs (fun p ->
          checkb "map equals sequential" true
            (Par.Pool.parallel_map p f input = expected);
          checkb "map_list equals sequential" true
            (Par.Pool.parallel_map_list p f (Array.to_list input)
            = Array.to_list expected)))
    widths

let test_parallel_for_chunked () =
  List.iter
    (fun jobs ->
      with_pool jobs (fun p ->
          let n = 1000 in
          let sum = Atomic.make 0 in
          Par.Pool.parallel_for p ~chunk:17 n (fun i ->
              ignore (Atomic.fetch_and_add sum i));
          checki "sum of 0..n-1" (n * (n - 1) / 2) (Atomic.get sum)))
    widths

let test_reduce_merges_in_chunk_order () =
  (* [map] returns its chunk bounds; a non-commutative merge
     (concatenation) must still see chunks in ascending order at every
     pool width. *)
  let chunks p n =
    Par.Pool.reduce p ~n ~chunk:10
      ~map:(fun lo hi -> [ (lo, hi) ])
      ~merge:(fun a b -> a @ b)
      ~init:[] ()
  in
  let expected = with_pool 1 (fun p -> chunks p 103) in
  checki "11 chunks" 11 (List.length expected);
  (* 101 chunks are enough for [reduce] to batch several adjacent
     chunks into one task at widths 2-4; batching must not change the
     merge: same chunks, same ascending order as at -j 1 *)
  let expected_batched = with_pool 1 (fun p -> chunks p 1003) in
  checki "101 chunks" 101 (List.length expected_batched);
  List.iter
    (fun jobs ->
      with_pool jobs (fun p ->
          checkb "chunk order independent of width" true
            (chunks p 103 = expected);
          checkb "batched reduce identical" true
            (chunks p 1003 = expected_batched)))
    widths

exception Boom

let test_exception_propagates () =
  (* a task exception re-raises in the caller as Task_failed carrying
     the failing task's identity and the original exception *)
  List.iter
    (fun jobs ->
      with_pool jobs (fun p ->
          match Par.Pool.run p 64 (fun i -> if i = 13 then raise Boom) with
          | () -> Alcotest.fail "expected the task exception to surface"
          | exception Par.Pool.Task_failed { index; exn = Boom; _ } ->
            checki "failing task identified" 13 index
          | exception _ -> Alcotest.fail "expected Task_failed{exn=Boom}"))
    widths;
  (* the pool survives a failed job: the worker domains are unaffected
     and serve the next job normally *)
  with_pool 4 (fun p ->
      (try Par.Pool.run p 8 (fun _ -> raise Boom)
       with Par.Pool.Task_failed _ -> ());
      let sum = Atomic.make 0 in
      Par.Pool.run p 8 (fun i -> ignore (Atomic.fetch_and_add sum i));
      checki "pool still works" 28 (Atomic.get sum));
  (* the sequential path stops at the first failure *)
  with_pool 1 (fun p ->
      let ran = ref 0 in
      (match
         Par.Pool.run p 100 (fun i ->
             incr ran;
             if i = 3 then raise Boom)
       with
      | () -> Alcotest.fail "expected Task_failed"
      | exception Par.Pool.Task_failed { index; _ } -> checki "index" 3 index);
      checki "stopped at the failure" 4 !ran)

let test_exception_backtrace () =
  with_pool 4 (fun p ->
      match Par.Pool.run p 16 (fun i -> if i = 5 then raise Boom) with
      | () -> Alcotest.fail "expected Task_failed"
      | exception Par.Pool.Task_failed { index; exn; backtrace } ->
        checki "index" 5 index;
        checkb "original exception" true (exn = Boom);
        (* the backtrace is the raw capture from the raising domain;
           just assert it converts without blowing up *)
        ignore (Printexc.raw_backtrace_to_string backtrace : string))

let test_nested_data_parallel_sections () =
  (* back-to-back jobs on one pool reuse the same workers *)
  with_pool 4 (fun p ->
      for round = 1 to 50 do
        let out = Par.Pool.parallel_map p (fun x -> x + round) [| 1; 2; 3 |] in
        checkb "round result" true (out = [| 1 + round; 2 + round; 3 + round |])
      done)

let test_fewer_tasks_than_jobs () =
  (* a wide pool fed less work than it has domains: every index still
     runs exactly once, chunking degenerates to a single chunk, and
     reduce still merges in ascending chunk order *)
  with_pool 8 (fun p ->
      let hits = Array.make 3 0 in
      Par.Pool.run p 3 (fun i -> hits.(i) <- hits.(i) + 1);
      Array.iter (checki "exactly once" 1) hits;
      let sum = Atomic.make 0 in
      Par.Pool.parallel_for p ~chunk:100 3 (fun i ->
          ignore (Atomic.fetch_and_add sum (i + 1)));
      checki "one chunk covers all" 6 (Atomic.get sum);
      let chunks =
        Par.Pool.reduce p ~n:3 ~chunk:64
          ~map:(fun lo hi -> [ (lo, hi) ])
          ~merge:( @ ) ~init:[] ()
      in
      checkb "single chunk" true (chunks = [ (0, 3) ]);
      (* more chunks than needed to occupy the pool is also fine *)
      let chunks =
        Par.Pool.reduce p ~n:10 ~chunk:3
          ~map:(fun lo hi -> [ (lo, hi) ])
          ~merge:( @ ) ~init:[] ()
      in
      checkb "ragged tail, ascending" true
        (chunks = [ (0, 3); (3, 6); (6, 9); (9, 10) ]))

let test_min_per_domain_threshold () =
  (* below the threshold [parallel_for] must not hand work to any other
     domain: every body runs on the calling domain *)
  let self () = (Domain.self () :> int) in
  with_pool 4 (fun p ->
      let caller = self () in
      let seen = Array.make 9 (-1) in
      Par.Pool.parallel_for p ~min_per_domain:5 9 (fun i -> seen.(i) <- self ());
      Array.iter (checki "for ran on the caller" caller) seen;
      (* at or above 2 x min_per_domain the parallel path re-engages
         and still produces identical results *)
      let out = Array.make 64 0 in
      Par.Pool.parallel_for p ~min_per_domain:5 64 (fun i -> out.(i) <- i * 3);
      checkb "above threshold identical" true
        (out = Array.init 64 (fun i -> i * 3)))

(* Regression for the lingering-job bug: after the join, the pool used
   to keep its last [job] record (and therefore the job's body closure,
   and everything that closure captured) alive until the next [run].
   The job slot must be dropped as soon as the join completes — on both
   the success and the failure path. *)
let test_job_dropped_after_join () =
  with_pool 4 (fun p ->
      Par.Pool.run p 8 (fun _ -> ());
      checkb "job slot cleared after success" false
        (Par.Pool.has_pending_job p);
      (try Par.Pool.run p 8 (fun _ -> raise Boom)
       with Par.Pool.Task_failed _ -> ());
      checkb "job slot cleared after failure" false
        (Par.Pool.has_pending_job p);
      (* and repeatedly, across many jobs *)
      for _ = 1 to 20 do
        Par.Pool.run p 4 (fun _ -> ());
        checkb "still cleared" false (Par.Pool.has_pending_job p)
      done)

let test_default_pool_set_jobs () =
  Par.Pool.set_jobs 3;
  checki "requested width" 3 (Par.Pool.effective_jobs ());
  checki "pool width follows" 3 (Par.Pool.jobs (Par.Pool.get ()));
  Par.Pool.set_jobs 1;
  checki "re-created narrower" 1 (Par.Pool.jobs (Par.Pool.get ()))

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "jobs clamped" `Quick test_jobs_clamped;
          Alcotest.test_case "run covers indices" `Quick
            test_run_covers_every_index;
          Alcotest.test_case "map matches sequential" `Quick
            test_parallel_map_matches_sequential;
          Alcotest.test_case "chunked for" `Quick test_parallel_for_chunked;
          Alcotest.test_case "reduce chunk order" `Quick
            test_reduce_merges_in_chunk_order;
          Alcotest.test_case "exceptions" `Quick test_exception_propagates;
          Alcotest.test_case "exception backtrace" `Quick
            test_exception_backtrace;
          Alcotest.test_case "job reuse" `Quick
            test_nested_data_parallel_sections;
          Alcotest.test_case "fewer tasks than jobs" `Quick
            test_fewer_tasks_than_jobs;
          Alcotest.test_case "min_per_domain threshold" `Quick
            test_min_per_domain_threshold;
          Alcotest.test_case "job dropped after join" `Quick
            test_job_dropped_after_join;
          Alcotest.test_case "default pool" `Quick test_default_pool_set_jobs;
        ] );
    ]
