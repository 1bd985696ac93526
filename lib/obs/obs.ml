(* ---- metrics registry ----

   Counters are atomics.  The registry table itself is guarded by one
   mutex, touched only on first registration and when listing. *)

module Metrics = struct
  type counter = int Atomic.t

  let registry_mutex = Mutex.create ()
  let counters_tbl : (string, counter) Hashtbl.t = Hashtbl.create 32

  let counter name =
    Mutex.protect registry_mutex (fun () ->
        match Hashtbl.find_opt counters_tbl name with
        | Some c -> c
        | None ->
          let c = Atomic.make 0 in
          Hashtbl.replace counters_tbl name c;
          c)

  let incr ?(by = 1) c = ignore (Atomic.fetch_and_add c by)
  let value = Atomic.get
  let set = Atomic.set

  let counters () =
    Mutex.protect registry_mutex (fun () ->
        Hashtbl.fold (fun name c acc -> (name, value c) :: acc) counters_tbl [])
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let reset () =
    Mutex.protect registry_mutex (fun () ->
        Hashtbl.iter (fun _ c -> set c 0) counters_tbl)
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
        { name; attrs; ts_us = t0; dur_us = dur; tid = (Domain.self () :> int) }
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

(* ---- span statistics ----

   Computed from the recorded events at report time, so every
   percentile is one of the measured durations. *)

type stats = { count : int; sum : float; p50 : float; p95 : float; max : float }

(* Nearest rank: the q-quantile is the ceil(q * n)-th smallest value. *)
let summarize durs =
  let a = Array.of_list durs in
  Array.sort Float.compare a;
  let n = Array.length a in
  let rank q =
    if n = 0 then 0.
    else a.(max 1 (int_of_float (Float.ceil (q *. float_of_int n))) - 1)
  in
  {
    count = n;
    sum = Array.fold_left ( +. ) 0. a;
    p50 = rank 0.50;
    p95 = rank 0.95;
    max = rank 1.0;
  }

let span_stats () =
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun ev ->
      let durs = Option.value ~default:[] (Hashtbl.find_opt by_name ev.name) in
      Hashtbl.replace by_name ev.name (ev.dur_us :: durs))
    (events ());
  Hashtbl.fold (fun name durs acc -> (name, summarize durs) :: acc) by_name []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let dump ppf =
  let cs = Metrics.counters () and ss = span_stats () in
  if cs <> [] then begin
    Format.fprintf ppf "counters:@.";
    List.iter (fun (n, v) -> Format.fprintf ppf "  %-36s %10d@." n v) cs
  end;
  if ss <> [] then begin
    Format.fprintf ppf "spans (seconds):@.";
    Format.fprintf ppf "  %-36s %8s %10s %10s %10s %10s@." "" "count" "sum"
      "p50" "p95" "max";
    let sec us = us /. 1e6 in
    List.iter
      (fun (n, st) ->
        Format.fprintf ppf "  %-36s %8d %10.6f %10.6f %10.6f %10.6f@." n
          st.count (sec st.sum) (sec st.p50) (sec st.p95) (sec st.max))
      ss
  end;
  if cs = [] && ss = [] then Format.fprintf ppf "(no metrics recorded)@."

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
