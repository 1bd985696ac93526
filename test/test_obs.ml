(* Tests for the observability layer: span recording and nesting,
   disabled-mode pass-through, the span statistics computed from the
   recorded events (nearest-rank percentiles), the counter registry,
   and the Chrome trace_event JSON export. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* Run [f] with span recording on and a clean event buffer, restoring
   the previous state afterwards so test order cannot matter. *)
let with_recording f =
  let was = Obs.enabled () in
  Obs.reset_events ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      if not was then Obs.disable ();
      Obs.reset_events ())
    f

(* ---- spans ---- *)

let test_span_records () =
  with_recording (fun () ->
      let v =
        Obs.span ~name:"outer" ~attrs:[ ("k", "v") ] (fun () ->
            Obs.span ~name:"inner" (fun () -> Unix.sleepf 0.002);
            17)
      in
      checki "result passes through" 17 v;
      match Obs.events () with
      | [ a; b ] ->
        (* events sort by begin time: outer starts first *)
        Alcotest.(check string) "outer first" "outer" a.Obs.name;
        Alcotest.(check string) "inner second" "inner" b.Obs.name;
        checkb "attrs kept" true (a.attrs = [ ("k", "v") ]);
        checkb "nesting: inner begins after outer" true (b.ts_us >= a.ts_us);
        checkb "nesting: inner ends within outer" true
          (b.ts_us +. b.dur_us <= a.ts_us +. a.dur_us +. 1.0);
        checkb "durations positive" true (a.dur_us > 0. && b.dur_us > 0.);
        checkb "inner not longer than outer" true (b.dur_us <= a.dur_us)
      | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs))

let test_span_exception_passthrough () =
  with_recording (fun () ->
      (match Obs.span ~name:"boom" (fun () -> failwith "bang") with
      | () -> Alcotest.fail "expected the exception through"
      | exception Failure m -> Alcotest.(check string) "message" "bang" m);
      checki "failing span still recorded" 1 (List.length (Obs.events ())))

let test_disabled_is_noop () =
  let was = Obs.enabled () in
  Obs.disable ();
  Obs.reset_events ();
  let v = Obs.span ~name:"ghost" (fun () -> 3) in
  checki "result through" 3 v;
  checki "nothing recorded" 0 (List.length (Obs.events ()));
  if was then Obs.enable ()

let test_span_feeds_stats () =
  with_recording (fun () ->
      Obs.span ~name:"timed-stage" (fun () -> Unix.sleepf 0.002);
      match List.assoc_opt "timed-stage" (Obs.span_stats ()) with
      | Some s ->
        checki "one observation" 1 s.Obs.count;
        checkb "max in a plausible band (us)" true
          (s.Obs.max >= 2000. && s.Obs.max < 1e6)
      | None -> Alcotest.fail "span statistics missing the span")

(* Every figure the statistics report is one of the recorded
   durations: with 25 spans, p50 is the 13th smallest and p95 the
   24th (nearest rank), not a bucket bound. *)
let test_percentiles_are_durations () =
  with_recording (fun () ->
      for i = 1 to 25 do
        Obs.span ~name:"pct" (fun () -> Unix.sleepf (float_of_int i *. 1e-4))
      done;
      let durs =
        List.filter_map
          (fun (e : Obs.event) ->
            if String.equal e.name "pct" then Some e.dur_us else None)
          (Obs.events ())
        |> List.sort Float.compare |> Array.of_list
      in
      checki "25 events" 25 (Array.length durs);
      match List.assoc_opt "pct" (Obs.span_stats ()) with
      | Some s ->
        checki "count" 25 s.Obs.count;
        checkb "max is the longest" true (s.max = durs.(24));
        checkb "p50 is the 13th smallest" true (s.p50 = durs.(12));
        checkb "p95 is the 24th smallest" true (s.p95 = durs.(23));
        checkb "sum" true
          (Float.abs (s.sum -. Array.fold_left ( +. ) 0. durs) < 1e-6)
      | None -> Alcotest.fail "span statistics missing the span")

(* The summary over plain values: exact order statistics. *)
let test_summarize () =
  let s =
    Obs.summarize (List.init 100 (fun _ -> 1.0) @ List.init 5 (fun _ -> 100.0))
  in
  checki "count" 105 s.Obs.count;
  checkb "sum" true (Float.abs (s.sum -. 600.) < 1e-9);
  checkb "max exact" true (s.max = 100.0);
  (* 100/105 > 0.95: both percentiles are the low value *)
  checkb "p50 exact" true (s.p50 = 1.0);
  checkb "p95 exact" true (s.p95 = 1.0);
  (* skewed the other way: both climb to the high value *)
  let s2 =
    Obs.summarize (List.init 10 (fun _ -> 1.0) @ List.init 90 (fun _ -> 100.0))
  in
  checkb "p50 high" true (s2.p50 = 100.0);
  checkb "p95 high" true (s2.p95 = 100.0);
  checkb "p95 <= max" true (s2.p95 <= s2.max);
  let s3 = Obs.summarize [ 1e12; 0.; 1e-15 ] in
  checki "extremes counted" 3 s3.count;
  checkb "extremes ranked" true (s3.p50 = 1e-15 && s3.max = 1e12);
  checki "empty" 0 (Obs.summarize []).count

(* ---- metrics ---- *)

let test_counter_registry () =
  let c = Obs.Metrics.counter "test.counter" in
  Obs.Metrics.set c 0;
  Obs.Metrics.incr c;
  Obs.Metrics.incr ~by:4 c;
  checki "incremented" 5 (Obs.Metrics.value c);
  (* the registry hands back the same instance per name *)
  checki "same instance by name" 5
    (Obs.Metrics.value (Obs.Metrics.counter "test.counter"));
  checkb "listed" true
    (List.mem ("test.counter", 5) (Obs.Metrics.counters ()));
  Obs.Metrics.set c 0

let test_metrics_reset () =
  let c = Obs.Metrics.counter "test.reset.c" in
  Obs.Metrics.incr c;
  Obs.Metrics.reset ();
  checki "counter zeroed" 0 (Obs.Metrics.value c);
  with_recording (fun () ->
      Obs.span ~name:"test.reset.span" (fun () -> ());
      Obs.reset_events ();
      checkb "span statistics cleared" true (Obs.span_stats () = []))

let test_dump_renders () =
  let c = Obs.Metrics.counter "test.dump.c" in
  Obs.Metrics.incr c;
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  with_recording (fun () ->
      Obs.span ~name:"test.dump.span" (fun () -> ());
      Obs.dump ppf);
  Format.pp_print_flush ppf ();
  checkb "dump mentions the counter" true
    (contains (Buffer.contents buf) "test.dump.c");
  checkb "dump mentions the span" true
    (contains (Buffer.contents buf) "test.dump.span");
  Obs.Metrics.set c 0

(* ---- trace JSON export, read back with Obs.Json ---- *)

open Obs.Json

let test_trace_json_valid () =
  with_recording (fun () ->
      Obs.span ~name:"alpha" ~attrs:[ ("id", "a\"b") ] (fun () -> ());
      Obs.span ~name:"beta" (fun () -> ());
      let doc = parse (Obs.trace_json ()) in
      match member "traceEvents" doc with
      | Some (Arr evs) ->
        checki "two events" 2 (List.length evs);
        List.iter
          (fun e ->
            checkb "complete event" true (member "ph" e = Some (Str "X"));
            checkb "has ts" true
              (match member "ts" e with Some (Num _) -> true | _ -> false);
            checkb "has dur" true
              (match member "dur" e with Some (Num _) -> true | _ -> false);
            checkb "has tid" true
              (match member "tid" e with Some (Num _) -> true | _ -> false))
          evs;
        let names =
          List.filter_map
            (fun e ->
              match member "name" e with Some (Str s) -> Some s | _ -> None)
            evs
        in
        checkb "both spans present" true
          (List.mem "alpha" names && List.mem "beta" names);
        (* the escaped attribute survives the round trip *)
        let alpha =
          List.find
            (fun e -> member "name" e = Some (Str "alpha"))
            evs
        in
        (match member "args" alpha with
        | Some args -> checkb "attr escaped" true (member "id" args = Some (Str "a\"b"))
        | None -> Alcotest.fail "missing args")
      | _ -> Alcotest.fail "missing traceEvents")

let test_write_trace_roundtrip () =
  with_recording (fun () ->
      Obs.span ~name:"disk" (fun () -> ());
      let path =
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "ballarus_obs_test_%d.json" (Unix.getpid ()))
      in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          Obs.write_trace path;
          let ic = open_in_bin path in
          let s = really_input_string ic (in_channel_length ic) in
          close_in ic;
          match member "traceEvents" (parse s) with
          | Some (Arr (_ :: _)) -> ()
          | _ -> Alcotest.fail "written trace unreadable"))

(* Every escape JSON defines decodes, and a malformed literal is
   rejected rather than read as [null]. *)
let test_json_reader () =
  checkb "escapes" true
    (parse {|["\"\\\/\b\f\n\r\t\u0001\u00e9"]|}
    = Arr [ Str "\"\\/\b\012\n\r\t\001\xc3\xa9" ]);
  checkb "null" true (parse " null " = Null);
  List.iter
    (fun bad ->
      match parse bad with
      | _ -> Alcotest.failf "accepted %S" bad
      | exception Bad _ -> ())
    [ "nulx"; "nul"; "true"; {|"\x"|}; {|"\u12g4"|}; {|"\ud800"|}; "[1,]" ]

(* Span names and attribute values are arbitrary strings: whatever
   ASCII bytes go in, [trace_json] and [Obs.Json.parse] must give the
   same strings back. *)
let prop_trace_roundtrip =
  let ascii = QCheck.(string_gen (Gen.map Char.chr (Gen.int_bound 127))) in
  QCheck.Test.make ~name:"trace_json round-trips ASCII names and attrs"
    ~count:300 (QCheck.pair ascii ascii) (fun (name, v) ->
      with_recording (fun () ->
          Obs.span ~name ~attrs:[ ("k", v) ] (fun () -> ());
          match member "traceEvents" (parse (Obs.trace_json ())) with
          | Some (Arr [ e ]) ->
            member "name" e = Some (Str name)
            && Option.bind (member "args" e) (member "k") = Some (Str v)
          | _ -> false))

let () =
  Alcotest.run "obs"
    [
      ( "spans",
        [
          Alcotest.test_case "record and nest" `Quick test_span_records;
          Alcotest.test_case "exception passthrough" `Quick
            test_span_exception_passthrough;
          Alcotest.test_case "disabled is a no-op" `Quick
            test_disabled_is_noop;
          Alcotest.test_case "feeds span statistics" `Quick
            test_span_feeds_stats;
          Alcotest.test_case "percentiles are recorded durations" `Quick
            test_percentiles_are_durations;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter registry" `Quick test_counter_registry;
          Alcotest.test_case "summary is exact nearest-rank" `Quick
            test_summarize;
          Alcotest.test_case "reset" `Quick test_metrics_reset;
          Alcotest.test_case "dump renders" `Quick test_dump_renders;
        ] );
      ( "export",
        [
          Alcotest.test_case "trace JSON valid" `Quick test_trace_json_valid;
          Alcotest.test_case "write_trace roundtrip" `Quick
            test_write_trace_roundtrip;
          Alcotest.test_case "JSON reader escapes and literals" `Quick
            test_json_reader;
          QCheck_alcotest.to_alcotest prop_trace_roundtrip;
        ] );
    ]
