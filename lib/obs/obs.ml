(* ---- metrics registry ----

   Counters are atomics; histograms take a tiny per-histogram mutex
   (observation happens once per span or retry, never in a
   per-instruction loop).  The registry tables themselves are
   guarded by one mutex, touched only on first registration and when
   listing. *)

module Metrics = struct
  type counter = { c_cell : int Atomic.t }

  (* Power-of-two buckets indexed by the binary exponent of the value
     (frexp), shifted so [min_exp] lands at slot 0.  Exponents -41..24
     cover ~5e-13 .. 1.6e7 — sub-nanosecond to months when the value
     is seconds. *)
  let min_exp = -41
  let max_exp = 24
  let nbuckets = max_exp - min_exp + 1

  type histogram = {
    h_mutex : Mutex.t;
    mutable h_count : int;
    mutable h_sum : float;
    mutable h_max : float;
    h_buckets : int array;
  }

  type hstats = {
    count : int;
    sum : float;
    p50 : float;
    p95 : float;
    max : float;
  }

  let registry_mutex = Mutex.create ()
  let counters_tbl : (string, counter) Hashtbl.t = Hashtbl.create 32
  let histograms_tbl : (string, histogram) Hashtbl.t = Hashtbl.create 16

  let registered tbl name make =
    Mutex.protect registry_mutex (fun () ->
        match Hashtbl.find_opt tbl name with
        | Some v -> v
        | None ->
          let v = make () in
          Hashtbl.replace tbl name v;
          v)

  let counter name =
    registered counters_tbl name (fun () -> { c_cell = Atomic.make 0 })

  let incr ?(by = 1) c = ignore (Atomic.fetch_and_add c.c_cell by)
  let value c = Atomic.get c.c_cell
  let set c n = Atomic.set c.c_cell n

  let histogram name =
    registered histograms_tbl name (fun () ->
        {
          h_mutex = Mutex.create ();
          h_count = 0;
          h_sum = 0.;
          h_max = neg_infinity;
          h_buckets = Array.make nbuckets 0;
        })

  (* Bucket of a positive value: its frexp exponent e (value in
     [2^(e-1), 2^e)), clamped to the table.  Zero and negatives fall
     into slot 0. *)
  let bucket_of v =
    if not (v > 0.) then 0
    else
      let _, e = Float.frexp v in
      min (max e min_exp) max_exp - min_exp

  (* Upper bound of bucket [i]: 2^(i + min_exp). *)
  let bucket_upper i = Float.ldexp 1.0 (i + min_exp)

  let observe h v =
    Mutex.protect h.h_mutex (fun () ->
        h.h_count <- h.h_count + 1;
        h.h_sum <- h.h_sum +. v;
        if v > h.h_max then h.h_max <- v;
        let i = bucket_of v in
        h.h_buckets.(i) <- h.h_buckets.(i) + 1)

  let quantile_locked h q =
    if h.h_count = 0 then 0.
    else begin
      let target =
        max 1 (int_of_float (Float.ceil (q *. float_of_int h.h_count)))
      in
      let rec go i seen =
        if i >= nbuckets then h.h_max
        else
          let seen = seen + h.h_buckets.(i) in
          if seen >= target then Float.min (bucket_upper i) h.h_max
          else go (i + 1) seen
      in
      go 0 0
    end

  let stats h =
    Mutex.protect h.h_mutex (fun () ->
        {
          count = h.h_count;
          sum = h.h_sum;
          p50 = quantile_locked h 0.50;
          p95 = quantile_locked h 0.95;
          max = (if h.h_count = 0 then 0. else h.h_max);
        })

  let sorted_list tbl read =
    Mutex.protect registry_mutex (fun () ->
        Hashtbl.fold (fun name v acc -> (name, read v) :: acc) tbl [])
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let counters () = sorted_list counters_tbl value
  let histograms () = sorted_list histograms_tbl stats

  let reset () =
    let cs, hs =
      Mutex.protect registry_mutex (fun () ->
          ( Hashtbl.fold (fun _ c acc -> c :: acc) counters_tbl [],
            Hashtbl.fold (fun _ h acc -> h :: acc) histograms_tbl [] ))
    in
    List.iter (fun c -> set c 0) cs;
    List.iter
      (fun h ->
        Mutex.protect h.h_mutex (fun () ->
            h.h_count <- 0;
            h.h_sum <- 0.;
            h.h_max <- neg_infinity;
            Array.fill h.h_buckets 0 nbuckets 0))
      hs

  let dump ppf =
    let cs = counters () and hs = histograms () in
    if cs <> [] then begin
      Format.fprintf ppf "counters:@.";
      List.iter (fun (n, v) -> Format.fprintf ppf "  %-36s %10d@." n v) cs
    end;
    if hs <> [] then begin
      Format.fprintf ppf "histograms (seconds):@.";
      Format.fprintf ppf "  %-36s %8s %10s %10s %10s@." "" "count" "p50"
        "p95" "max";
      List.iter
        (fun (n, (s : hstats)) ->
          Format.fprintf ppf "  %-36s %8d %10.6f %10.6f %10.6f@." n s.count
            s.p50 s.p95 s.max)
        hs
    end;
    if cs = [] && hs = [] then
      Format.fprintf ppf "(no metrics recorded)@."
end

(* ---- spans ---- *)

type event = {
  name : string;
  attrs : (string * string) list;
  ts_us : float;
  dur_us : float;
  tid : int;
}

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let enable () = Atomic.set enabled_flag true
let disable () = Atomic.set enabled_flag false

(* Every domain appends to its own buffer; the global list of buffers
   is only touched (under [buffers_mutex]) when a domain records its
   first event and when exporting.  A buffer outlives its domain —
   spans recorded on short-lived worker domains survive to export. *)
let buffers : event list ref list ref = ref []
let buffers_mutex = Mutex.create ()

let buffer_key =
  Domain.DLS.new_key (fun () ->
      let buf = ref [] in
      Mutex.protect buffers_mutex (fun () -> buffers := buf :: !buffers);
      buf)

let now_us () = Unix.gettimeofday () *. 1e6

let record ev =
  let buf = Domain.DLS.get buffer_key in
  buf := ev :: !buf

let span ~name ?(attrs = []) f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let t0 = now_us () in
    let finish () =
      let dur = now_us () -. t0 in
      record
        { name; attrs; ts_us = t0; dur_us = dur; tid = (Domain.self () :> int) };
      Metrics.observe (Metrics.histogram ("span." ^ name)) (dur /. 1e6)
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      finish ();
      Printexc.raise_with_backtrace e bt
  end

let events () =
  let bufs = Mutex.protect buffers_mutex (fun () -> !buffers) in
  List.concat_map (fun b -> !b) bufs
  |> List.sort (fun a b -> Float.compare a.ts_us b.ts_us)

let reset_events () =
  let bufs = Mutex.protect buffers_mutex (fun () -> !buffers) in
  List.iter (fun b -> b := []) bufs

(* ---- JSON ----

   The one JSON codec of the repository: the string escaping the trace
   writer uses, and a reader for the documents that writer (and the
   other tools here) emit. *)

module Json = struct
  type t =
    | Null
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Bad of string

  let escape s =
    let buf = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\r' -> Buffer.add_string buf "\\r"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let parse (s : string) : t =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
      | _ -> ()
    in
    let expect c =
      if !pos < n && s.[!pos] = c then advance ()
      else fail (Printf.sprintf "expected %c" c)
    in
    (* the four hex digits of a \uXXXX escape, as a code point; UTF-16
       surrogate halves are not scalar values and are rejected *)
    let hex4 () =
      let digit () =
        match peek () with
        | Some ('0' .. '9' as c) -> Char.code c - Char.code '0'
        | Some ('a' .. 'f' as c) -> Char.code c - Char.code 'a' + 10
        | Some ('A' .. 'F' as c) -> Char.code c - Char.code 'A' + 10
        | _ -> fail "bad \\u escape"
      in
      let c = ref 0 in
      for _ = 1 to 4 do
        c := (!c lsl 4) lor digit ();
        advance ()
      done;
      if Uchar.is_valid !c then Uchar.of_int !c
      else fail "surrogate \\u escape"
    in
    let string_lit () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string";
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
          advance ();
          if !pos >= n then fail "unterminated escape";
          let c = s.[!pos] in
          advance ();
          (match c with
          | '"' | '\\' | '/' -> Buffer.add_char buf c
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | 'r' -> Buffer.add_char buf '\r'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' -> Buffer.add_utf_8_uchar buf (hex4 ())
          | c -> fail (Printf.sprintf "bad escape \\%c" c));
          go ()
        | c ->
          Buffer.add_char buf c;
          advance ();
          go ()
      in
      go ();
      Buffer.contents buf
    in
    let number () =
      let start = !pos in
      let is_num_char = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && is_num_char s.[!pos] do
        advance ()
      done;
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> Num f
      | None -> fail "bad number"
    in
    let rec value () =
      skip_ws ();
      match peek () with
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec fields acc =
            skip_ws ();
            let k = string_lit () in
            skip_ws ();
            expect ':';
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              fields ((k, v) :: acc)
            | Some '}' ->
              advance ();
              Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected , or }"
          in
          fields []
        end
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec items acc =
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              items (v :: acc)
            | Some ']' ->
              advance ();
              Arr (List.rev (v :: acc))
            | _ -> fail "expected , or ]"
          in
          items []
        end
      | Some '"' -> Str (string_lit ())
      | Some 'n' ->
        if !pos + 4 <= n && String.sub s !pos 4 = "null" then begin
          pos := !pos + 4;
          Null
        end
        else fail "expected null"
      | Some _ -> number ()
      | None -> fail "unexpected end of input"
    in
    let v = value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v

  let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
end

(* ---- Chrome trace_event export ---- *)

let trace_json () =
  let evs = events () in
  let pid = Unix.getpid () in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  List.iteri
    (fun i ev ->
      if i > 0 then Buffer.add_string buf ",";
      Buffer.add_string buf
        (Printf.sprintf
           "\n{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\
            \"pid\":%d,\"tid\":%d,\"args\":{"
           (Json.escape ev.name) ev.ts_us ev.dur_us pid ev.tid);
      List.iteri
        (fun j (k, v) ->
          if j > 0 then Buffer.add_string buf ",";
          Buffer.add_string buf
            (Printf.sprintf "\"%s\":\"%s\"" (Json.escape k) (Json.escape v)))
        ev.attrs;
      Buffer.add_string buf "}}")
    evs;
  Buffer.add_string buf "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents buf

let write_trace path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (trace_json ()))

let trace_file_ref : string option ref = ref None
let exit_hook_installed = ref false

let trace_file () = !trace_file_ref

let set_trace_file = function
  | Some path ->
    trace_file_ref := Some path;
    enable ();
    if not !exit_hook_installed then begin
      exit_hook_installed := true;
      at_exit (fun () ->
          match !trace_file_ref with
          | Some p -> ( try write_trace p with Sys_error _ -> ())
          | None -> ())
    end
  | None -> trace_file_ref := None

let () =
  match Sys.getenv_opt "BALLARUS_TRACE" with
  | Some path when String.trim path <> "" -> set_trace_file (Some path)
  | _ -> ()
