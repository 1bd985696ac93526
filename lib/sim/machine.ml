type t = {
  prog : Mips.Program.t;
  iregs : int array;
  fregs : float array;
  mutable fcc : bool;
  mem_i : int array;
  mem_f : float array;
  mutable proc : int;
  mutable pc : int;
  mutable instrs : int;
  mutable checksum : int;
  mutable icursor : int;
  mutable fcursor : int;
  input : Dataset.t;
  mutable dirty_lo : int;
  mutable dirty_hi : int;
}

exception Fault of string
exception Out_of_fuel of string

type stats = {
  instr_count : int;
  checksum : int;
  ints_read : int;
  floats_read : int;
}

let fault m fmt =
  Printf.ksprintf
    (fun msg ->
      raise
        (Fault
           (Printf.sprintf "%s (at %s+%d, %d instructions executed)" msg
              m.prog.procs.(m.proc).name m.pc m.instrs)))
    fmt

(* Fuel exhaustion is its own exception, not a [Fault]: a program that
   runs past its step budget is a resource-limit event the supervision
   layer must classify ([Fuel_exhausted]) and report distinctly from a
   genuine runtime error.  Both interpreters raise it with identical
   message text — the differential oracle compares fault messages
   byte-for-byte. *)
let out_of_fuel m =
  raise
    (Out_of_fuel
       (Printf.sprintf
          "out of fuel: instruction limit exceeded (at %s+%d, %d instructions executed)"
          m.prog.procs.(m.proc).name m.pc m.instrs))

(* The default fuel budget for a run that does not pass [?max_instrs]:
   high enough that no real workload comes near it, low enough that a
   runaway generated program fails in bounded time instead of hanging
   a domain forever.  Overridable per-process via [BALLARUS_FUEL] or
   [set_default_fuel]. *)
let builtin_fuel = 2_000_000_000

let default_fuel_limit =
  ref
    (match Sys.getenv_opt "BALLARUS_FUEL" with
    | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | _ -> builtin_fuel)
    | None -> builtin_fuel)

let set_default_fuel n = default_fuel_limit := max 1 n
let default_fuel () = !default_fuel_limit

(* The process-wide wall-clock deadline, [infinity] when unset.  Where
   fuel bounds a run by instructions, the deadline bounds it by time,
   cooperatively: long-running work calls [check_deadline] where it
   already pauses, on whichever domain runs it. *)
exception Deadline_exceeded

let deadline_cell = Atomic.make infinity
let deadline () = Atomic.get deadline_cell
let set_deadline t = Atomic.set deadline_cell t

let check_deadline () =
  let d = Atomic.get deadline_cell in
  if d < infinity && Unix.gettimeofday () > d then raise Deadline_exceeded

(* The decoded interpreter checks the deadline every this many
   instructions. *)
let fuel_slice = 1 lsl 16

let max_call_depth = 65536

(* Domain-local scratch memory.  The two memory planes are millions of
   words of zero-initialised storage, so allocating them fresh costs
   more than a short program spends executing.  Each domain parks one
   pair after a run; reacquisition re-zeroes only the address ranges
   the previous run dirtied, which the interpreter tracks as two
   intervals — stores land either low (globals/heap, grows up) or high
   (stack, grows down), so a watermark per half covers everything.
   The slot is emptied while in use, so a nested run on the same
   domain simply falls back to fresh allocation. *)
let scratch_slot : (int * int array * float array) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let acquire_mem mem_words =
  let slot = Domain.DLS.get scratch_slot in
  match !slot with
  | Some (w, mi, mf) when w = mem_words ->
    slot := None;
    (mi, mf)
  | _ -> (Array.make mem_words 0, Array.make mem_words 0.)

let release_mem m =
  let w = Array.length m.mem_i in
  let zero lo hi =
    if lo <= hi then begin
      Array.fill m.mem_i lo (hi - lo + 1) 0;
      Array.fill m.mem_f lo (hi - lo + 1) 0.
    end
  in
  zero 0 m.dirty_lo;
  zero m.dirty_hi (w - 1);
  let slot = Domain.DLS.get scratch_slot in
  slot := Some (w, m.mem_i, m.mem_f)

let create ?(scratch = false) prog input =
  let mem_words = prog.Mips.Program.mem_words in
  let mem_i, mem_f =
    if scratch then acquire_mem mem_words
    else (Array.make mem_words 0, Array.make mem_words 0.)
  in
  let m =
    {
      prog;
      iregs = Array.make 32 0;
      fregs = Array.make 32 0.;
      fcc = false;
      mem_i;
      mem_f;
      proc = prog.entry;
      pc = 0;
      instrs = 0;
      checksum = 0;
      icursor = 0;
      fcursor = 0;
      input;
      dirty_lo = -1;
      dirty_hi = mem_words;
    }
  in
  let mid = mem_words lsr 1 in
  let touch a =
    if a < mid then begin
      if a > m.dirty_lo then m.dirty_lo <- a
    end
    else if a < m.dirty_hi then m.dirty_hi <- a
  in
  List.iter
    (fun (a, v) ->
      m.mem_i.(a) <- v;
      touch a)
    prog.idata;
  List.iter
    (fun (a, v) ->
      m.mem_f.(a) <- v;
      touch a)
    prog.fdata;
  m.iregs.(Mips.Reg.to_int Mips.Reg.gp) <- prog.gp_base;
  m.iregs.(Mips.Reg.to_int Mips.Reg.sp) <- prog.stack_base;
  m

(* Pre-resolve Jal targets so calls do not hash procedure names. *)
let resolve_callees prog =
  Array.map
    (fun (p : Mips.Program.proc) ->
      Array.map
        (function
          | Mips.Insn.Jal name -> Mips.Program.proc_index prog name
          | _ -> -1)
        p.body)
    prog.Mips.Program.procs

let nobranch _ ~taken:_ = ()
let noindirect _ = ()

(* ---- the pre-decoded interpreter ----

   The hot loop is a tail-recursive [step pc instrs] so the program
   counter and instruction count live in registers; [m.pc]/[m.instrs]
   are synchronised only where an observer can look (branch/indirect
   callbacks and faults), with the same values the legacy interpreter
   exposes at those points.  Dispatch is a single match over
   [Decode.op] — no nested operand or condition matches survive to run
   time.  [limit] is the fuel budget or the end of the current fuel
   slice, whichever comes first, so the loop pays one comparison per
   instruction for both fuel and deadline.  It starts at 0, so a run
   also checks the deadline before its first instruction. *)

let run_decoded ?max_instrs ?(on_branch = nobranch)
    ?(on_indirect = noindirect) (d : Decode.t) input =
  let max_instrs =
    match max_instrs with Some n -> n | None -> !default_fuel_limit
  in
  let limit = ref 0 in
  let prog = d.Decode.prog in
  let m = create ~scratch:true prog input in
  let regs = m.iregs and fregs = m.fregs in
  let mem_i = m.mem_i and mem_f = m.mem_f in
  let mem_words = prog.Mips.Program.mem_words in
  let mem_mid = mem_words lsr 1 in
  let ints = input.Dataset.ints and floats = input.Dataset.floats in
  let nints = Array.length ints and nfloats = Array.length floats in
  let ret_proc = Array.make max_call_depth 0 in
  let ret_pc = Array.make max_call_depth 0 in
  let depth = ref 0 in
  let dprocs = d.Decode.procs in
  let nprocs = Array.length dprocs in
  let cur = ref (Array.unsafe_get dprocs m.proc) in
  (* expose the observable position, exactly as the legacy loop does *)
  let sync pc instrs =
    m.pc <- pc;
    m.instrs <- instrs
  in
  let finish instrs =
    m.instrs <- instrs;
    {
      instr_count = instrs;
      checksum = m.checksum;
      ints_read = min m.icursor nints;
      floats_read = min m.fcursor nfloats;
    }
  in
  let rec step pc instrs =
    let c = !cur in
    if pc >= Array.length c.Decode.ops then begin
      sync pc instrs;
      fault m "fell off the end of procedure"
    end;
    if instrs >= !limit then begin
      sync pc instrs;
      if instrs >= max_instrs then out_of_fuel m;
      check_deadline ();
      limit := min max_instrs (instrs + fuel_slice)
    end;
    let instrs = instrs + 1 in
    let x = Array.unsafe_get c.Decode.xs pc in
    let y = Array.unsafe_get c.Decode.ys pc in
    let z = Array.unsafe_get c.Decode.zs pc in
    match Array.unsafe_get c.Decode.ops pc with
    | Decode.Add_rr ->
      if x <> 0 then
        Array.unsafe_set regs x
          (Array.unsafe_get regs y + Array.unsafe_get regs z);
      step (pc + 1) instrs
    | Decode.Sub_rr ->
      if x <> 0 then
        Array.unsafe_set regs x
          (Array.unsafe_get regs y - Array.unsafe_get regs z);
      step (pc + 1) instrs
    | Decode.Mul_rr ->
      if x <> 0 then
        Array.unsafe_set regs x
          (Array.unsafe_get regs y * Array.unsafe_get regs z);
      step (pc + 1) instrs
    | Decode.Div_rr ->
      let b = Array.unsafe_get regs z in
      if b = 0 then begin
        sync pc instrs;
        fault m "division by zero"
      end;
      if x <> 0 then Array.unsafe_set regs x (Array.unsafe_get regs y / b);
      step (pc + 1) instrs
    | Decode.Rem_rr ->
      let b = Array.unsafe_get regs z in
      if b = 0 then begin
        sync pc instrs;
        fault m "remainder by zero"
      end;
      if x <> 0 then Array.unsafe_set regs x (Array.unsafe_get regs y mod b);
      step (pc + 1) instrs
    | Decode.And_rr ->
      if x <> 0 then
        Array.unsafe_set regs x
          (Array.unsafe_get regs y land Array.unsafe_get regs z);
      step (pc + 1) instrs
    | Decode.Or_rr ->
      if x <> 0 then
        Array.unsafe_set regs x
          (Array.unsafe_get regs y lor Array.unsafe_get regs z);
      step (pc + 1) instrs
    | Decode.Xor_rr ->
      if x <> 0 then
        Array.unsafe_set regs x
          (Array.unsafe_get regs y lxor Array.unsafe_get regs z);
      step (pc + 1) instrs
    | Decode.Sll_rr ->
      if x <> 0 then
        Array.unsafe_set regs x
          (Array.unsafe_get regs y lsl (Array.unsafe_get regs z land 63));
      step (pc + 1) instrs
    | Decode.Sra_rr ->
      if x <> 0 then
        Array.unsafe_set regs x
          (Array.unsafe_get regs y asr (Array.unsafe_get regs z land 63));
      step (pc + 1) instrs
    | Decode.Slt_rr ->
      if x <> 0 then
        Array.unsafe_set regs x
          (if Array.unsafe_get regs y < Array.unsafe_get regs z then 1 else 0);
      step (pc + 1) instrs
    | Decode.Sle_rr ->
      if x <> 0 then
        Array.unsafe_set regs x
          (if Array.unsafe_get regs y <= Array.unsafe_get regs z then 1 else 0);
      step (pc + 1) instrs
    | Decode.Seq_rr ->
      if x <> 0 then
        Array.unsafe_set regs x
          (if Array.unsafe_get regs y = Array.unsafe_get regs z then 1 else 0);
      step (pc + 1) instrs
    | Decode.Sne_rr ->
      if x <> 0 then
        Array.unsafe_set regs x
          (if Array.unsafe_get regs y <> Array.unsafe_get regs z then 1 else 0);
      step (pc + 1) instrs
    | Decode.Add_ri ->
      if x <> 0 then Array.unsafe_set regs x (Array.unsafe_get regs y + z);
      step (pc + 1) instrs
    | Decode.Sub_ri ->
      if x <> 0 then Array.unsafe_set regs x (Array.unsafe_get regs y - z);
      step (pc + 1) instrs
    | Decode.Mul_ri ->
      if x <> 0 then Array.unsafe_set regs x (Array.unsafe_get regs y * z);
      step (pc + 1) instrs
    | Decode.Div_ri ->
      if z = 0 then begin
        sync pc instrs;
        fault m "division by zero"
      end;
      if x <> 0 then Array.unsafe_set regs x (Array.unsafe_get regs y / z);
      step (pc + 1) instrs
    | Decode.Rem_ri ->
      if z = 0 then begin
        sync pc instrs;
        fault m "remainder by zero"
      end;
      if x <> 0 then Array.unsafe_set regs x (Array.unsafe_get regs y mod z);
      step (pc + 1) instrs
    | Decode.And_ri ->
      if x <> 0 then Array.unsafe_set regs x (Array.unsafe_get regs y land z);
      step (pc + 1) instrs
    | Decode.Or_ri ->
      if x <> 0 then Array.unsafe_set regs x (Array.unsafe_get regs y lor z);
      step (pc + 1) instrs
    | Decode.Xor_ri ->
      if x <> 0 then Array.unsafe_set regs x (Array.unsafe_get regs y lxor z);
      step (pc + 1) instrs
    | Decode.Sll_ri ->
      if x <> 0 then
        Array.unsafe_set regs x (Array.unsafe_get regs y lsl (z land 63));
      step (pc + 1) instrs
    | Decode.Sra_ri ->
      if x <> 0 then
        Array.unsafe_set regs x (Array.unsafe_get regs y asr (z land 63));
      step (pc + 1) instrs
    | Decode.Slt_ri ->
      if x <> 0 then
        Array.unsafe_set regs x (if Array.unsafe_get regs y < z then 1 else 0);
      step (pc + 1) instrs
    | Decode.Sle_ri ->
      if x <> 0 then
        Array.unsafe_set regs x (if Array.unsafe_get regs y <= z then 1 else 0);
      step (pc + 1) instrs
    | Decode.Seq_ri ->
      if x <> 0 then
        Array.unsafe_set regs x (if Array.unsafe_get regs y = z then 1 else 0);
      step (pc + 1) instrs
    | Decode.Sne_ri ->
      if x <> 0 then
        Array.unsafe_set regs x (if Array.unsafe_get regs y <> z then 1 else 0);
      step (pc + 1) instrs
    | Decode.Li ->
      if x <> 0 then Array.unsafe_set regs x y;
      step (pc + 1) instrs
    | Decode.Move ->
      if x <> 0 then Array.unsafe_set regs x (Array.unsafe_get regs y);
      step (pc + 1) instrs
    | Decode.Lw ->
      let addr = y + Array.unsafe_get regs z in
      if addr < 0 || addr >= mem_words then begin
        sync pc instrs;
        fault m "load from bad address %d" addr
      end;
      if x <> 0 then Array.unsafe_set regs x (Array.unsafe_get mem_i addr);
      step (pc + 1) instrs
    | Decode.Sw ->
      let addr = y + Array.unsafe_get regs z in
      if addr < 0 || addr >= mem_words then begin
        sync pc instrs;
        fault m "store to bad address %d" addr
      end;
      Array.unsafe_set mem_i addr (Array.unsafe_get regs x);
      if addr < mem_mid then begin
        if addr > m.dirty_lo then m.dirty_lo <- addr
      end
      else if addr < m.dirty_hi then m.dirty_hi <- addr;
      step (pc + 1) instrs
    | Decode.Fadd ->
      Array.unsafe_set fregs x
        (Array.unsafe_get fregs y +. Array.unsafe_get fregs z);
      step (pc + 1) instrs
    | Decode.Fsub ->
      Array.unsafe_set fregs x
        (Array.unsafe_get fregs y -. Array.unsafe_get fregs z);
      step (pc + 1) instrs
    | Decode.Fmul ->
      Array.unsafe_set fregs x
        (Array.unsafe_get fregs y *. Array.unsafe_get fregs z);
      step (pc + 1) instrs
    | Decode.Fdiv ->
      Array.unsafe_set fregs x
        (Array.unsafe_get fregs y /. Array.unsafe_get fregs z);
      step (pc + 1) instrs
    | Decode.Fneg ->
      Array.unsafe_set fregs x (-.Array.unsafe_get fregs y);
      step (pc + 1) instrs
    | Decode.Fabs ->
      Array.unsafe_set fregs x (Float.abs (Array.unsafe_get fregs y));
      step (pc + 1) instrs
    | Decode.Fli ->
      Array.unsafe_set fregs x (Array.unsafe_get c.Decode.fimms y);
      step (pc + 1) instrs
    | Decode.Fmove ->
      Array.unsafe_set fregs x (Array.unsafe_get fregs y);
      step (pc + 1) instrs
    | Decode.Ld ->
      let addr = y + Array.unsafe_get regs z in
      if addr < 0 || addr >= mem_words then begin
        sync pc instrs;
        fault m "f-load from bad address %d" addr
      end;
      Array.unsafe_set fregs x (Array.unsafe_get mem_f addr);
      step (pc + 1) instrs
    | Decode.Sd ->
      let addr = y + Array.unsafe_get regs z in
      if addr < 0 || addr >= mem_words then begin
        sync pc instrs;
        fault m "f-store to bad address %d" addr
      end;
      Array.unsafe_set mem_f addr (Array.unsafe_get fregs x);
      if addr < mem_mid then begin
        if addr > m.dirty_lo then m.dirty_lo <- addr
      end
      else if addr < m.dirty_hi then m.dirty_hi <- addr;
      step (pc + 1) instrs
    | Decode.Itof ->
      Array.unsafe_set fregs x (float_of_int (Array.unsafe_get regs y));
      step (pc + 1) instrs
    | Decode.Ftoi ->
      let v = Array.unsafe_get fregs y in
      if Float.is_nan v || Float.abs v >= 1e18 then begin
        sync pc instrs;
        fault m "float-to-int out of range"
      end;
      if x <> 0 then Array.unsafe_set regs x (int_of_float v);
      step (pc + 1) instrs
    | Decode.Fcmp_eq ->
      m.fcc <- Array.unsafe_get fregs x = Array.unsafe_get fregs y;
      step (pc + 1) instrs
    | Decode.Fcmp_lt ->
      m.fcc <- Array.unsafe_get fregs x < Array.unsafe_get fregs y;
      step (pc + 1) instrs
    | Decode.Fcmp_le ->
      m.fcc <- Array.unsafe_get fregs x <= Array.unsafe_get fregs y;
      step (pc + 1) instrs
    | Decode.Beq ->
      let taken = Array.unsafe_get regs x = Array.unsafe_get regs y in
      sync pc instrs;
      on_branch m ~taken;
      step (if taken then z else pc + 1) instrs
    | Decode.Bne ->
      let taken = Array.unsafe_get regs x <> Array.unsafe_get regs y in
      sync pc instrs;
      on_branch m ~taken;
      step (if taken then z else pc + 1) instrs
    | Decode.Bltz ->
      let taken = Array.unsafe_get regs x < 0 in
      sync pc instrs;
      on_branch m ~taken;
      step (if taken then z else pc + 1) instrs
    | Decode.Blez ->
      let taken = Array.unsafe_get regs x <= 0 in
      sync pc instrs;
      on_branch m ~taken;
      step (if taken then z else pc + 1) instrs
    | Decode.Bgtz ->
      let taken = Array.unsafe_get regs x > 0 in
      sync pc instrs;
      on_branch m ~taken;
      step (if taken then z else pc + 1) instrs
    | Decode.Bgez ->
      let taken = Array.unsafe_get regs x >= 0 in
      sync pc instrs;
      on_branch m ~taken;
      step (if taken then z else pc + 1) instrs
    | Decode.Bfp_t ->
      let taken = m.fcc in
      sync pc instrs;
      on_branch m ~taken;
      step (if taken then z else pc + 1) instrs
    | Decode.Bfp_f ->
      let taken = not m.fcc in
      sync pc instrs;
      on_branch m ~taken;
      step (if taken then z else pc + 1) instrs
    | Decode.Jump -> step z instrs
    | Decode.Jtab ->
      let i = Array.unsafe_get regs x in
      let tab = Array.unsafe_get c.Decode.jtabs y in
      if i < 0 || i >= Array.length tab then begin
        sync pc instrs;
        fault m "jump table index %d out of range" i
      end;
      sync pc instrs;
      on_indirect m;
      step (Array.unsafe_get tab i) instrs
    | Decode.Call -> call pc instrs z
    | Decode.Callr ->
      sync pc instrs;
      on_indirect m;
      call pc instrs (Array.unsafe_get regs x)
    | Decode.Ret ->
      if !depth = 0 then finish instrs
      else begin
        decr depth;
        let p = Array.unsafe_get ret_proc !depth in
        m.proc <- p;
        cur := Array.unsafe_get dprocs p;
        step (Array.unsafe_get ret_pc !depth) instrs
      end
    | Decode.ReadI ->
      let v =
        if m.icursor < nints then Array.unsafe_get ints m.icursor else -1
      in
      m.icursor <- m.icursor + 1;
      if x <> 0 then Array.unsafe_set regs x v;
      step (pc + 1) instrs
    | Decode.ReadF ->
      let v =
        if m.fcursor < nfloats then Array.unsafe_get floats m.fcursor else 0.
      in
      m.fcursor <- m.fcursor + 1;
      Array.unsafe_set fregs x v;
      step (pc + 1) instrs
    | Decode.PrintI ->
      m.checksum <-
        ((m.checksum * 31) + Array.unsafe_get regs x) land 0x3FFFFFFFFFFF;
      step (pc + 1) instrs
    | Decode.PrintF ->
      let v = Array.unsafe_get fregs x *. 4096. in
      let v =
        if Float.is_nan v || Float.abs v >= 1e18 then 0x5EED else int_of_float v
      in
      m.checksum <- ((m.checksum * 31) + v) land 0x3FFFFFFFFFFF;
      step (pc + 1) instrs
    | Decode.Halt -> finish instrs
    | Decode.Nop -> step (pc + 1) instrs
  and call pc instrs target =
    if !depth >= max_call_depth then begin
      sync pc instrs;
      fault m "call stack overflow"
    end;
    Array.unsafe_set ret_proc !depth m.proc;
    Array.unsafe_set ret_pc !depth (pc + 1);
    incr depth;
    if target < 0 || target >= nprocs then begin
      sync pc instrs;
      fault m "call to bad procedure index %d" target
    end;
    m.proc <- target;
    cur := Array.unsafe_get dprocs target;
    step 0 instrs
  in
  Fun.protect ~finally:(fun () -> release_mem m) (fun () -> step 0 0)

let run ?max_instrs ?on_branch ?on_indirect prog input =
  run_decoded ?max_instrs ?on_branch ?on_indirect (Decode.of_program prog)
    input

(* ---- the legacy variant-dispatch interpreter ----

   Kept as the differential-testing reference for the decoded path: it
   pattern-matches the original [Mips.Insn] representation on every
   step.  [run] above must be observationally identical (stats, hook
   sequences, fault messages). *)

let run_legacy ?max_instrs ?(on_branch = nobranch)
    ?(on_indirect = noindirect) prog input =
  let max_instrs =
    match max_instrs with Some n -> n | None -> !default_fuel_limit
  in
  let m = create prog input in
  let callees = resolve_callees prog in
  let regs = m.iregs and fregs = m.fregs in
  let mem_i = m.mem_i and mem_f = m.mem_f in
  let mem_words = prog.Mips.Program.mem_words in
  let nints = Array.length input.Dataset.ints in
  let nfloats = Array.length input.Dataset.floats in
  let ret_proc = Array.make max_call_depth 0 in
  let ret_pc = Array.make max_call_depth 0 in
  let depth = ref 0 in
  let body = ref prog.procs.(m.proc).body in
  let running = ref true in
  let rd r = Array.unsafe_get regs (Mips.Reg.to_int r) in
  let wr r v = if Mips.Reg.to_int r <> 0 then Array.unsafe_set regs (Mips.Reg.to_int r) v in
  let frd r = Array.unsafe_get fregs (Mips.Freg.to_int r) in
  let fwr r v = Array.unsafe_set fregs (Mips.Freg.to_int r) v in
  let load addr =
    if addr < 0 || addr >= mem_words then fault m "load from bad address %d" addr
    else Array.unsafe_get mem_i addr
  in
  let store addr v =
    if addr < 0 || addr >= mem_words then fault m "store to bad address %d" addr
    else Array.unsafe_set mem_i addr v
  in
  let fload addr =
    if addr < 0 || addr >= mem_words then fault m "f-load from bad address %d" addr
    else Array.unsafe_get mem_f addr
  in
  let fstore addr v =
    if addr < 0 || addr >= mem_words then fault m "f-store to bad address %d" addr
    else Array.unsafe_set mem_f addr v
  in
  let do_call target =
    if !depth >= max_call_depth then fault m "call stack overflow";
    ret_proc.(!depth) <- m.proc;
    ret_pc.(!depth) <- m.pc + 1;
    incr depth;
    if target < 0 || target >= Array.length prog.procs then
      fault m "call to bad procedure index %d" target;
    m.proc <- target;
    body := prog.procs.(target).body;
    m.pc <- 0
  in
  while !running do
    if m.pc >= Array.length !body then fault m "fell off the end of procedure";
    if m.instrs >= max_instrs then out_of_fuel m;
    m.instrs <- m.instrs + 1;
    let ins = Array.unsafe_get !body m.pc in
    match ins with
    | Mips.Insn.Alu (op, rdst, rs, operand) ->
      let a = rd rs in
      let b = match operand with Mips.Insn.Reg r -> rd r | Mips.Insn.Imm n -> n in
      let v =
        match op with
        | Add -> a + b
        | Sub -> a - b
        | Mul -> a * b
        | Div -> if b = 0 then fault m "division by zero" else a / b
        | Rem -> if b = 0 then fault m "remainder by zero" else a mod b
        | And -> a land b
        | Or -> a lor b
        | Xor -> a lxor b
        | Sll -> a lsl (b land 63)
        | Sra -> a asr (b land 63)
        | Slt -> if a < b then 1 else 0
        | Sle -> if a <= b then 1 else 0
        | Seq -> if a = b then 1 else 0
        | Sne -> if a <> b then 1 else 0
      in
      wr rdst v;
      m.pc <- m.pc + 1
    | Li (r, n) -> wr r n; m.pc <- m.pc + 1
    | La (r, n) -> wr r n; m.pc <- m.pc + 1
    | Move (rdst, rs) -> wr rdst (rd rs); m.pc <- m.pc + 1
    | Lw (rt, off, base) -> wr rt (load (off + rd base)); m.pc <- m.pc + 1
    | Sw (rt, off, base) -> store (off + rd base) (rd rt); m.pc <- m.pc + 1
    | Falu (op, fd, fs, ft) ->
      let a = frd fs and b = frd ft in
      let v =
        match op with
        | Fadd -> a +. b
        | Fsub -> a -. b
        | Fmul -> a *. b
        | Fdiv -> a /. b
      in
      fwr fd v;
      m.pc <- m.pc + 1
    | Fneg (fd, fs) -> fwr fd (-.frd fs); m.pc <- m.pc + 1
    | Fabs (fd, fs) -> fwr fd (Float.abs (frd fs)); m.pc <- m.pc + 1
    | Fli (fd, x) -> fwr fd x; m.pc <- m.pc + 1
    | Fmove (fd, fs) -> fwr fd (frd fs); m.pc <- m.pc + 1
    | Ld (ft, off, base) -> fwr ft (fload (off + rd base)); m.pc <- m.pc + 1
    | Sd (ft, off, base) -> fstore (off + rd base) (frd ft); m.pc <- m.pc + 1
    | Itof (fd, rs) -> fwr fd (float_of_int (rd rs)); m.pc <- m.pc + 1
    | Ftoi (rdst, fs) ->
      let x = frd fs in
      if Float.is_nan x || Float.abs x >= 1e18 then
        fault m "float-to-int out of range";
      wr rdst (int_of_float x);
      m.pc <- m.pc + 1
    | Fcmp (c, fs, ft) ->
      let a = frd fs and b = frd ft in
      m.fcc <-
        (match c with Feq -> a = b | Flt -> a < b | Fle -> a <= b);
      m.pc <- m.pc + 1
    | Beq (rs, rt, l) ->
      let taken = rd rs = rd rt in
      on_branch m ~taken;
      m.pc <- (if taken then l else m.pc + 1)
    | Bne (rs, rt, l) ->
      let taken = rd rs <> rd rt in
      on_branch m ~taken;
      m.pc <- (if taken then l else m.pc + 1)
    | Bz (c, rs, l) ->
      let v = rd rs in
      let taken =
        match c with Ltz -> v < 0 | Lez -> v <= 0 | Gtz -> v > 0 | Gez -> v >= 0
      in
      on_branch m ~taken;
      m.pc <- (if taken then l else m.pc + 1)
    | Bfp (sense, l) ->
      let taken = m.fcc = sense in
      on_branch m ~taken;
      m.pc <- (if taken then l else m.pc + 1)
    | J l -> m.pc <- l
    | Jtab (rs, ls) ->
      let i = rd rs in
      if i < 0 || i >= Array.length ls then fault m "jump table index %d out of range" i;
      on_indirect m;
      m.pc <- ls.(i)
    | Jal _ -> do_call callees.(m.proc).(m.pc)
    | Jalr rs ->
      on_indirect m;
      do_call (rd rs)
    | Ret ->
      if !depth = 0 then running := false
      else begin
        decr depth;
        m.proc <- ret_proc.(!depth);
        body := prog.procs.(m.proc).body;
        m.pc <- ret_pc.(!depth)
      end
    | ReadI r ->
      let v = if m.icursor < nints then input.ints.(m.icursor) else -1 in
      m.icursor <- m.icursor + 1;
      wr r v;
      m.pc <- m.pc + 1
    | ReadF fr ->
      let v = if m.fcursor < nfloats then input.floats.(m.fcursor) else 0. in
      m.fcursor <- m.fcursor + 1;
      fwr fr v;
      m.pc <- m.pc + 1
    | PrintI r ->
      m.checksum <- ((m.checksum * 31) + rd r) land 0x3FFFFFFFFFFF;
      m.pc <- m.pc + 1
    | PrintF fr ->
      let x = frd fr *. 4096. in
      let v =
        if Float.is_nan x || Float.abs x >= 1e18 then 0x5EED
        else int_of_float x
      in
      m.checksum <- ((m.checksum * 31) + v) land 0x3FFFFFFFFFFF;
      m.pc <- m.pc + 1
    | Halt -> running := false
    | Nop -> m.pc <- m.pc + 1
  done;
  {
    instr_count = m.instrs;
    checksum = m.checksum;
    ints_read = min m.icursor nints;
    floats_read = min m.fcursor nfloats;
  }
