module I = Mips.Insn

let invert (ins : int I.t) =
  match ins with
  | I.Beq (a, b, l) -> I.Bne (a, b, l)
  | I.Bne (a, b, l) -> I.Beq (a, b, l)
  | I.Bz (I.Ltz, r, l) -> I.Bz (I.Gez, r, l)
  | I.Bz (I.Gez, r, l) -> I.Bz (I.Ltz, r, l)
  | I.Bz (I.Lez, r, l) -> I.Bz (I.Gtz, r, l)
  | I.Bz (I.Gtz, r, l) -> I.Bz (I.Lez, r, l)
  | I.Bfp (s, l) -> I.Bfp (not s, l)
  | _ -> invalid_arg "Layout.invert: not a conditional branch"

(* Greedy trace formation: start at the entry, keep extending along
   the likely successor; start new traces at the first unplaced block
   (original order) when stuck. *)
let trace_order (g : Cfg.Graph.t) ~predict =
  let n = g.nblocks in
  let placed = Array.make n false in
  let order = ref [] in
  let place b =
    placed.(b) <- true;
    order := b :: !order
  in
  let likely_succ b =
    match Cfg.Graph.branch_edges g b with
    | Some (t, f) -> Some (if predict ~block:b then t.dst else f.dst)
    | None -> begin
      match g.succs.(b) with
      | [ { dst; kind = Cfg.Graph.Uncond; _ } ] -> Some dst
      | _ -> None (* switch, return, halt *)
    end
  in
  let rec chain b =
    place b;
    match likely_succ b with
    | Some s when not placed.(s) -> chain s
    | _ -> ()
  in
  chain 0;
  for b = 0 to n - 1 do
    if not placed.(b) then chain b
  done;
  Array.of_list (List.rev !order)

let block_label b = Printf.sprintf "B%d" b

let reorder_proc ~predict (proc : Mips.Program.proc) =
  let g = Cfg.Graph.build proc in
  let order = trace_order g ~predict in
  let n = g.nblocks in
  let items = ref [] in
  let emit it = items := it :: !items in
  (* branch labels are instruction indices; they always land on block
     leaders, so translate through the enclosing block *)
  let lab l = block_label g.block_of_instr.(l) in
  Array.iteri
    (fun pos b ->
      let next = if pos + 1 < n then Some order.(pos + 1) else None in
      emit (Mips.Asm.Lab (block_label b));
      (* body instructions except the terminator *)
      for idx = g.first.(b) to g.last.(b) - 1 do
        emit (Mips.Asm.Ins (I.map_label lab proc.body.(idx)))
      done;
      let term = proc.body.(g.last.(b)) in
      match Cfg.Graph.branch_edges g b with
      | Some (te, fe) ->
        let t = te.dst and f = fe.dst in
        if next = Some f then
          (* keep: predicted-or-not, the fall-through is physically next *)
          emit (Mips.Asm.Ins (I.map_label lab term))
        else if next = Some t then
          (* invert so the old target becomes the fall-through *)
          emit
            (Mips.Asm.Ins
               (I.map_label (fun _ -> block_label f) (invert term)))
        else begin
          emit (Mips.Asm.Ins (I.map_label lab term));
          emit (Mips.Asm.Ins (I.J (block_label f)))
        end
      | None -> begin
        match term with
        | I.J l ->
          let dst = g.block_of_instr.(l) in
          if next <> Some dst then emit (Mips.Asm.Ins (I.J (block_label dst)))
        | I.Jtab _ | I.Ret | I.Halt ->
          emit (Mips.Asm.Ins (I.map_label lab term))
        | _ ->
          (* plain fall-through block *)
          emit (Mips.Asm.Ins (I.map_label lab term));
          (match g.succs.(b) with
          | [ { dst; _ } ] when next <> Some dst ->
            emit (Mips.Asm.Ins (I.J (block_label dst)))
          | _ -> ())
      end)
    order;
  { proc with body = Mips.Asm.assemble (List.rev !items) }

let apply (prog : Mips.Program.t) ~predict =
  {
    prog with
    procs =
      Array.map
        (fun (p : Mips.Program.proc) ->
          reorder_proc ~predict:(fun ~block -> predict ~proc:p.index ~block) p)
        prog.procs;
  }

let guided (db : Database.t) ~predictor =
  let predictions = Hashtbl.create 512 in
  Array.iter
    (fun (br : Database.branch) ->
      Hashtbl.replace predictions (br.proc, br.block) (predictor br))
    db.branches;
  apply db.program ~predict:(fun ~proc ~block ->
      Option.value ~default:false (Hashtbl.find_opt predictions (proc, block)))

let taken_transfers ?max_instrs prog dataset =
  let taken_count = ref 0 in
  let exec_count = ref 0 in
  let on_branch _ ~taken =
    incr exec_count;
    if taken then incr taken_count
  in
  let stats = Sim.Machine.run ?max_instrs ~on_branch prog dataset in
  (!taken_count, !exec_count, stats)

let check_run ~name (profile : Sim.Profile.t)
    (_, execs, (stats : Sim.Machine.stats)) =
  if stats.checksum <> profile.stats.checksum then
    failwith (name ^ ": layout changed program behaviour");
  let expected = Sim.Profile.branch_execs profile in
  if execs <> expected then
    failwith
      (Printf.sprintf
         "%s: layout changed the conditional branch count (%d -> %d)" name
         expected execs)
