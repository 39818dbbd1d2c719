(** The declarative pointer analyses (the Doop analog, DESIGN.md S5):
    Andersen context-insensitive analysis, Cut-Shortcut, and context
    sensitivity under any {!Context.t} selector, expressed as Datalog rules
    over the EDB of {!Facts}.

    Faithful to the paper's Doop implementation, the declarative Cut-Shortcut
    omits the field-*load* pattern ([CutPropLoad] needs negation inside the
    recursive cycle, §5 "Implementation"); its [cutStores]/[cutReturns] are
    static relations of stratum 0, so every negation is stratified. *)

open Csc_common
module Ir = Csc_ir.Ir
module Solver = Csc_pta.Solver
module Context = Csc_pta.Context
module E = Engine
module Snapshot = Csc_obs.Snapshot
open E

(* the Datalog engines expose a small fixed metric set; building the
   snapshot directly keeps them registry-free *)
let dl_snapshot (t : E.t) ~time : Snapshot.t =
  let cells, index = E.store_words t in
  let words name n =
    Snapshot.Gauge { name; labels = []; value = float_of_int n }
  in
  Snapshot.of_metrics
    [ Snapshot.Counter { name = "derived"; labels = []; value = E.derived_count t };
      Snapshot.Counter { name = "scans"; labels = []; value = E.scan_count t };
      Snapshot.Counter { name = "emits"; labels = []; value = E.emit_count t };
      Snapshot.Counter
        { name = "delta_tuples"; labels = []; value = E.delta_count t };
      Snapshot.Counter { name = "fires"; labels = []; value = E.fire_count t };
      Snapshot.Counter { name = "plans"; labels = []; value = E.plan_count t };
      Snapshot.Gauge { name = "time_s"; labels = []; value = time };
      words "cell_words" cells;
      words "index_words" index ]

let v x = V x
let c x = C x

type kind =
  | Ci
  | Csc_doop  (** store + container + local-flow patterns, no load pattern *)
  | Cs of Context.t

let kind_name = function
  | Ci -> "doop-ci"
  | Csc_doop -> "doop-csc"
  | Cs sel -> "doop-" ^ sel.sel_name

(* ------------------------------------------------------- CI core rules *)

let ci_rules (t : E.t) =
  let r h b = add_rule t (h <-- b) in
  r (atom "Reachable" [ v "M" ]) [ atom "EntryMethod" [ v "M" ] ];
  r (atom "VPT" [ v "V"; v "H" ])
    [ atom "Reachable" [ v "M" ]; atom "AllocIn" [ v "M"; v "V"; v "H" ] ];
  r (atom "VPT" [ v "To"; v "H" ])
    [ atom "Assign" [ v "To"; v "From" ]; atom "VPT" [ v "From"; v "H" ] ];
  r (atom "VPT" [ v "To"; v "H" ])
    [ atom "CastAssign" [ v "To"; v "From"; v "X" ];
      atom "VPT" [ v "From"; v "H" ]; atom "CastOk" [ v "X"; v "H" ] ];
  (* field store, suppressed for cutStores *)
  r (atom "FPT" [ v "H"; v "F"; v "H2" ])
    [ atom "Store" [ v "S"; v "B"; v "F"; v "Y" ];
      atom ~neg:true "CutStore" [ v "S" ];
      atom "VPT" [ v "B"; v "H" ]; atom "VPT" [ v "Y"; v "H2" ] ];
  r (atom "VPT" [ v "To"; v "H2" ])
    [ atom "Load" [ v "To"; v "B"; v "F" ]; atom "VPT" [ v "B"; v "H" ];
      atom "FPT" [ v "H"; v "F"; v "H2" ] ];
  (* arrays *)
  r (atom "APT" [ v "H"; v "H2" ])
    [ atom "AStoreR" [ v "Arr"; v "Y" ]; atom "VPT" [ v "Arr"; v "H" ];
      atom "HeapIsArray" [ v "H" ]; atom "VPT" [ v "Y"; v "H2" ] ];
  r (atom "VPT" [ v "To"; v "H2" ])
    [ atom "ALoadR" [ v "To"; v "Arr" ]; atom "VPT" [ v "Arr"; v "H" ];
      atom "APT" [ v "H"; v "H2" ] ];
  (* statics *)
  r (atom "SPT" [ v "F"; v "H" ])
    [ atom "SStoreR" [ v "F"; v "Y" ]; atom "VPT" [ v "Y"; v "H" ] ];
  r (atom "VPT" [ v "To"; v "H" ])
    [ atom "SLoadR" [ v "To"; v "F" ]; atom "SPT" [ v "F"; v "H" ] ];
  (* calls: virtual dispatch *)
  r (atom "VDisp" [ v "Site"; v "H"; v "Callee" ])
    [ atom "Reachable" [ v "M" ];
      atom "VCallIn" [ v "M"; v "Site"; v "Recv"; v "Name" ];
      atom "VPT" [ v "Recv"; v "H" ]; atom "HeapClass" [ v "H"; v "C" ];
      atom "Dispatch" [ v "C"; v "Name"; v "Callee" ] ];
  r (atom "CallEdge" [ v "Site"; v "Callee" ])
    [ atom "VDisp" [ v "Site"; v "H"; v "Callee" ] ];
  r (atom "VPT" [ v "This"; v "H" ])
    [ atom "VDisp" [ v "Site"; v "H"; v "Callee" ];
      atom "FormalParam" [ v "Callee"; c 0; v "This" ] ];
  (* calls: constructors *)
  r (atom "CallEdge" [ v "Site"; v "Callee" ])
    [ atom "Reachable" [ v "M" ];
      atom "SpecialIn" [ v "M"; v "Site"; v "Recv"; v "Callee" ] ];
  r (atom "VPT" [ v "This"; v "H" ])
    [ atom "Reachable" [ v "M" ];
      atom "SpecialIn" [ v "M"; v "Site"; v "Recv"; v "Callee" ];
      atom "VPT" [ v "Recv"; v "H" ];
      atom "FormalParam" [ v "Callee"; c 0; v "This" ] ];
  (* calls: statics *)
  r (atom "CallEdge" [ v "Site"; v "Callee" ])
    [ atom "Reachable" [ v "M" ];
      atom "StaticIn" [ v "M"; v "Site"; v "Callee" ] ];
  r (atom "Reachable" [ v "Callee" ]) [ atom "CallEdge" [ v "Site"; v "Callee" ] ];
  (* parameter passing *)
  r (atom "VPT" [ v "P"; v "H" ])
    [ atom "CallEdge" [ v "Site"; v "Callee" ];
      atom "ArgVar" [ v "Site"; v "K"; v "A" ];
      atom "FormalParam" [ v "Callee"; v "K"; v "P" ];
      atom "VPT" [ v "A"; v "H" ] ];
  (* returns, suppressed for cutReturns *)
  r (atom "VPT" [ v "Lhs"; v "H" ])
    [ atom "CallEdge" [ v "Site"; v "Callee" ];
      atom ~neg:true "CutReturn" [ v "Callee" ];
      atom "CallLhs" [ v "Site"; v "Lhs" ];
      atom "MethodRet" [ v "Callee"; v "Ret" ]; atom "VPT" [ v "Ret"; v "H" ] ]

(* ------------------------------------------------ Cut-Shortcut rules *)

let csc_rules (t : E.t) =
  let r h b = add_rule t (h <-- b) in
  (* ---- field store pattern (Fig. 8) ---- *)
  r (atom "TempStore" [ v "M"; v "K1"; v "F"; v "K2" ])
    [ atom "StorePattern" [ v "M"; v "K1"; v "F"; v "K2" ] ];
  (* PropStore: both arguments are never-redefined caller parameters *)
  r (atom "TempStore" [ v "M2"; v "K1p"; v "F"; v "K2p" ])
    [ atom "TempStore" [ v "M"; v "K1"; v "F"; v "K2" ];
      atom "CallEdge" [ v "Site"; v "M" ]; atom "SiteIn" [ v "Site"; v "M2" ];
      atom "ArgParamIdx" [ v "Site"; v "K1"; v "K1p" ];
      atom "ArgParamIdx" [ v "Site"; v "K2"; v "K2p" ] ];
  (* ShortcutStore: propagation stops at this call site *)
  r (atom "SCStore" [ v "Site"; v "K1"; v "F"; v "K2" ])
    [ atom "TempStore" [ v "M"; v "K1"; v "F"; v "K2" ];
      atom "CallEdge" [ v "Site"; v "M" ];
      atom "ArgNotParam" [ v "Site"; v "K1" ] ];
  r (atom "SCStore" [ v "Site"; v "K1"; v "F"; v "K2" ])
    [ atom "TempStore" [ v "M"; v "K1"; v "F"; v "K2" ];
      atom "CallEdge" [ v "Site"; v "M" ];
      atom "ArgNotParam" [ v "Site"; v "K2" ] ];
  r (atom "FPT" [ v "H"; v "F"; v "H2" ])
    [ atom "SCStore" [ v "Site"; v "K1"; v "F"; v "K2" ];
      atom "ArgOrRecv" [ v "Site"; v "K1"; v "B" ];
      atom "ArgOrRecv" [ v "Site"; v "K2"; v "Y" ];
      atom "VPT" [ v "B"; v "H" ]; atom "VPT" [ v "Y"; v "H2" ] ];
  (* ---- local flow pattern (Fig. 11) ---- *)
  r (atom "VPT" [ v "Lhs"; v "H" ])
    [ atom "CallEdge" [ v "Site"; v "M" ]; atom "LFlowSrc" [ v "M"; v "K" ];
      atom "CallLhs" [ v "Site"; v "Lhs" ];
      atom "ArgOrRecv" [ v "Site"; v "K"; v "A" ]; atom "VPT" [ v "A"; v "H" ] ];
  (* ---- container pattern (Fig. 10) ---- *)
  (* ColHost / MapHost *)
  r (atom "PtHV" [ v "V"; v "HH" ])
    [ atom "VPT" [ v "V"; v "HH" ]; atom "HostHeap" [ v "HH" ] ];
  (* PropHost along each PFG edge family *)
  r (atom "PtHV" [ v "To"; v "HH" ])
    [ atom "Assign" [ v "To"; v "From" ]; atom "PtHV" [ v "From"; v "HH" ] ];
  r (atom "PtHV" [ v "To"; v "HH" ])
    [ atom "CastAssign" [ v "To"; v "From"; v "X" ];
      atom "PtHV" [ v "From"; v "HH" ] ];
  r (atom "PtHF" [ v "H"; v "F"; v "HH" ])
    [ atom "Store" [ v "S"; v "B"; v "F"; v "Y" ];
      atom ~neg:true "CutStore" [ v "S" ]; atom "VPT" [ v "B"; v "H" ];
      atom "PtHV" [ v "Y"; v "HH" ] ];
  r (atom "PtHV" [ v "To"; v "HH" ])
    [ atom "Load" [ v "To"; v "B"; v "F" ]; atom "VPT" [ v "B"; v "H" ];
      atom "PtHF" [ v "H"; v "F"; v "HH" ] ];
  r (atom "PtHA" [ v "H"; v "HH" ])
    [ atom "AStoreR" [ v "Arr"; v "Y" ]; atom "VPT" [ v "Arr"; v "H" ];
      atom "PtHV" [ v "Y"; v "HH" ] ];
  r (atom "PtHV" [ v "To"; v "HH" ])
    [ atom "ALoadR" [ v "To"; v "Arr" ]; atom "VPT" [ v "Arr"; v "H" ];
      atom "PtHA" [ v "H"; v "HH" ] ];
  r (atom "PtHS" [ v "F"; v "HH" ])
    [ atom "SStoreR" [ v "F"; v "Y" ]; atom "PtHV" [ v "Y"; v "HH" ] ];
  r (atom "PtHV" [ v "To"; v "HH" ])
    [ atom "SLoadR" [ v "To"; v "F" ]; atom "PtHS" [ v "F"; v "HH" ] ];
  r (atom "PtHV" [ v "P"; v "HH" ])
    [ atom "CallEdge" [ v "Site"; v "Callee" ];
      atom "ArgVar" [ v "Site"; v "K"; v "A" ];
      atom "FormalParam" [ v "Callee"; v "K"; v "P" ];
      atom "PtHV" [ v "A"; v "HH" ] ];
  r (atom "PtHV" [ v "This"; v "HH" ])
    [ atom "CallEdge" [ v "Site"; v "Callee" ];
      atom "SiteRecv" [ v "Site"; v "Recv" ];
      atom "FormalParam" [ v "Callee"; c 0; v "This" ];
      atom "PtHV" [ v "Recv"; v "HH" ] ];
  (* PropHost along return edges, excluding Transfers and cut returns *)
  r (atom "PtHV" [ v "Lhs"; v "HH" ])
    [ atom "CallEdge" [ v "Site"; v "Callee" ];
      atom ~neg:true "TransferR" [ v "Callee" ];
      atom ~neg:true "CutReturn" [ v "Callee" ];
      atom "CallLhs" [ v "Site"; v "Lhs" ];
      atom "MethodRet" [ v "Callee"; v "Ret" ]; atom "PtHV" [ v "Ret"; v "HH" ] ];
  (* TransferHost *)
  r (atom "PtHV" [ v "Lhs"; v "HH" ])
    [ atom "CallEdge" [ v "Site"; v "Callee" ]; atom "TransferR" [ v "Callee" ];
      atom "SiteRecv" [ v "Site"; v "Recv" ]; atom "CallLhs" [ v "Site"; v "Lhs" ];
      atom "PtHV" [ v "Recv"; v "HH" ] ];
  (* HostSource / HostTarget / ShortcutContainer *)
  r (atom "SrcOf" [ v "HH"; v "Cat"; v "A" ])
    [ atom "CallEdge" [ v "Site"; v "Callee" ];
      atom "Entrance" [ v "Callee"; v "K"; v "Cat" ];
      atom "SiteRecv" [ v "Site"; v "Recv" ]; atom "PtHV" [ v "Recv"; v "HH" ];
      atom "ArgOrRecv" [ v "Site"; v "K"; v "A" ] ];
  r (atom "TgtOf" [ v "HH"; v "Cat"; v "Lhs" ])
    [ atom "CallEdge" [ v "Site"; v "Callee" ];
      atom "ExitR" [ v "Callee"; v "Cat" ];
      atom "SiteRecv" [ v "Site"; v "Recv" ]; atom "PtHV" [ v "Recv"; v "HH" ];
      atom "CallLhs" [ v "Site"; v "Lhs" ] ];
  r (atom "VPT" [ v "T"; v "H" ])
    [ atom "SrcOf" [ v "HH"; v "Cat"; v "S" ];
      atom "TgtOf" [ v "HH"; v "Cat"; v "T" ]; atom "VPT" [ v "S"; v "H" ] ];
  (* PropHost along shortcut edges *)
  r (atom "PtHV" [ v "T"; v "HH2" ])
    [ atom "SrcOf" [ v "HH"; v "Cat"; v "S" ];
      atom "TgtOf" [ v "HH"; v "Cat"; v "T" ]; atom "PtHV" [ v "S"; v "HH2" ] ];
  r (atom "PtHV" [ v "Lhs"; v "HH" ])
    [ atom "CallEdge" [ v "Site"; v "M" ]; atom "LFlowSrc" [ v "M"; v "K" ];
      atom "CallLhs" [ v "Site"; v "Lhs" ];
      atom "ArgOrRecv" [ v "Site"; v "K"; v "A" ]; atom "PtHV" [ v "A"; v "HH" ] ];
  r (atom "PtHF" [ v "H"; v "F"; v "HH" ])
    [ atom "SCStore" [ v "Site"; v "K1"; v "F"; v "K2" ];
      atom "ArgOrRecv" [ v "Site"; v "K1"; v "B" ];
      atom "ArgOrRecv" [ v "Site"; v "K2"; v "Y" ];
      atom "VPT" [ v "B"; v "H" ]; atom "PtHV" [ v "Y"; v "HH" ] ]

(* When Cut-Shortcut is off, the cut relations must stay empty: CI declares
   them (via Facts.load ~csc:false) and never populates them. *)

(* ------------------------------------------- context-sensitive rules *)

(* Contexts and context-sensitive objects are made on the fly through
   builtin functors, like Doop's context constructors: [mkobj] and
   [calleectx]/[staticctx] (Doop's [Record] and [Merge]/[MergeStatic]) ask
   the selector, so one {!Context.t} serves both engines, and every id
   they return is one of [env]'s contexts or objects, the store the
   imperative solver uses. *)

let cs_rules (t : E.t) (env : Context.env) (sel : Context.t) =
  add_builtin t "mkobj" (fun args ->
      (* mkobj(C, H) -> O : allocate H under method context C *)
      let h = args.(1) in
      Context.obj env ~hctx:(sel.sel_heap_ctx env ~mctx:args.(0) ~site:h) ~site:h);
  add_builtin t "objalloc" (fun args -> Context.obj_site env args.(0));
  add_builtin t "calleectx" (fun args ->
      (* calleectx(C, Site, O, Callee) -> C2 *)
      sel.sel_callee_ctx env ~caller_ctx:args.(0) ~site:args.(1)
        ~recv:args.(2) ~callee:args.(3));
  add_builtin t "staticctx" (fun args ->
      (* staticctx(C, Site, Callee) -> C2 *)
      sel.sel_callee_ctx env ~caller_ctx:args.(0) ~site:args.(1) ~recv:(-1)
        ~callee:args.(2));
  let r h b = add_rule t (h <-- b) in
  r (atom "ReachCS" [ c Context.empty; v "M" ]) [ atom "EntryMethod" [ v "M" ] ];
  r (atom "CVPT" [ v "C"; v "V"; v "O" ])
    [ atom "ReachCS" [ v "C"; v "M" ]; atom "AllocIn" [ v "M"; v "V"; v "H" ];
      fn "mkobj" [ v "C"; v "H"; v "O" ] ];
  r (atom "CVPT" [ v "C"; v "To"; v "O" ])
    [ atom "Assign" [ v "To"; v "From" ]; atom "CVPT" [ v "C"; v "From"; v "O" ] ];
  r (atom "CVPT" [ v "C"; v "To"; v "O" ])
    [ atom "CastAssign" [ v "To"; v "From"; v "X" ];
      atom "CVPT" [ v "C"; v "From"; v "O" ]; fn "objalloc" [ v "O"; v "H" ];
      atom "CastOk" [ v "X"; v "H" ] ];
  r (atom "CFPT" [ v "O"; v "F"; v "O2" ])
    [ atom "Store" [ v "S"; v "B"; v "F"; v "Y" ];
      atom "CVPT" [ v "C"; v "B"; v "O" ]; atom "CVPT" [ v "C"; v "Y"; v "O2" ] ];
  r (atom "CVPT" [ v "C"; v "To"; v "O2" ])
    [ atom "Load" [ v "To"; v "B"; v "F" ]; atom "CVPT" [ v "C"; v "B"; v "O" ];
      atom "CFPT" [ v "O"; v "F"; v "O2" ] ];
  r (atom "CAPT" [ v "O"; v "O2" ])
    [ atom "AStoreR" [ v "Arr"; v "Y" ]; atom "CVPT" [ v "C"; v "Arr"; v "O" ];
      atom "CVPT" [ v "C"; v "Y"; v "O2" ] ];
  r (atom "CVPT" [ v "C"; v "To"; v "O2" ])
    [ atom "ALoadR" [ v "To"; v "Arr" ]; atom "CVPT" [ v "C"; v "Arr"; v "O" ];
      fn "objalloc" [ v "O"; v "H" ]; atom "HeapIsArray" [ v "H" ];
      atom "CAPT" [ v "O"; v "O2" ] ];
  r (atom "CSPT" [ v "F"; v "O" ])
    [ atom "SStoreR" [ v "F"; v "Y" ]; atom "CVPT" [ v "C"; v "Y"; v "O" ] ];
  (* static loads need the loading variable's method contexts *)
  r (atom "CVPT" [ v "C"; v "To"; v "O" ])
    [ atom "SLoadR" [ v "To"; v "F" ]; atom "VarMeth" [ v "To"; v "M" ];
      atom "ReachCS" [ v "C"; v "M" ]; atom "CSPT" [ v "F"; v "O" ] ];
  r (atom "CVDisp" [ v "C"; v "Site"; v "O"; v "Callee" ])
    [ atom "ReachCS" [ v "C"; v "M" ];
      atom "VCallIn" [ v "M"; v "Site"; v "Recv"; v "Name" ];
      atom "CVPT" [ v "C"; v "Recv"; v "O" ]; fn "objalloc" [ v "O"; v "H" ];
      atom "HeapClass" [ v "H"; v "Cl" ];
      atom "Dispatch" [ v "Cl"; v "Name"; v "Callee" ] ];
  r (atom "CallEdgeCS" [ v "C"; v "Site"; v "C2"; v "Callee" ])
    [ atom "CVDisp" [ v "C"; v "Site"; v "O"; v "Callee" ];
      fn "calleectx" [ v "C"; v "Site"; v "O"; v "Callee"; v "C2" ] ];
  r (atom "CVPT" [ v "C2"; v "This"; v "O" ])
    [ atom "CVDisp" [ v "C"; v "Site"; v "O"; v "Callee" ];
      fn "calleectx" [ v "C"; v "Site"; v "O"; v "Callee"; v "C2" ];
      atom "FormalParam" [ v "Callee"; c 0; v "This" ] ];
  r (atom "CSpecial" [ v "C"; v "Site"; v "O"; v "Callee" ])
    [ atom "ReachCS" [ v "C"; v "M" ];
      atom "SpecialIn" [ v "M"; v "Site"; v "Recv"; v "Callee" ];
      atom "CVPT" [ v "C"; v "Recv"; v "O" ] ];
  r (atom "CallEdgeCS" [ v "C"; v "Site"; v "C2"; v "Callee" ])
    [ atom "CSpecial" [ v "C"; v "Site"; v "O"; v "Callee" ];
      fn "calleectx" [ v "C"; v "Site"; v "O"; v "Callee"; v "C2" ] ];
  r (atom "CVPT" [ v "C2"; v "This"; v "O" ])
    [ atom "CSpecial" [ v "C"; v "Site"; v "O"; v "Callee" ];
      fn "calleectx" [ v "C"; v "Site"; v "O"; v "Callee"; v "C2" ];
      atom "FormalParam" [ v "Callee"; c 0; v "This" ] ];
  r (atom "CallEdgeCS" [ v "C"; v "Site"; v "C2"; v "Callee" ])
    [ atom "ReachCS" [ v "C"; v "M" ];
      atom "StaticIn" [ v "M"; v "Site"; v "Callee" ];
      fn "staticctx" [ v "C"; v "Site"; v "Callee"; v "C2" ] ];
  r (atom "ReachCS" [ v "C2"; v "M2" ])
    [ atom "CallEdgeCS" [ v "C"; v "Site"; v "C2"; v "M2" ] ];
  r (atom "CVPT" [ v "C2"; v "P"; v "O" ])
    [ atom "CallEdgeCS" [ v "C"; v "Site"; v "C2"; v "Callee" ];
      atom "ArgVar" [ v "Site"; v "K"; v "A" ];
      atom "FormalParam" [ v "Callee"; v "K"; v "P" ];
      atom "CVPT" [ v "C"; v "A"; v "O" ] ];
  r (atom "CVPT" [ v "C"; v "Lhs"; v "O" ])
    [ atom "CallEdgeCS" [ v "C"; v "Site"; v "C2"; v "Callee" ];
      atom "CallLhs" [ v "Site"; v "Lhs" ];
      atom "MethodRet" [ v "Callee"; v "Ret" ];
      atom "CVPT" [ v "C2"; v "Ret"; v "O" ] ]

(* -------------------------------------------------------------- results *)

(* the engine-agnostic result; [pts] feeds each (variable, allocation
   site) pair to its argument. Points-to sets are kept by variable id. *)
let result (t : E.t) (p : Ir.program) ~name ~time ~reach ~edges pts : Solver.result =
  let empty = Bits.create () in
  let var_pt = Array.make (Array.length p.vars) empty in
  pts (fun v h ->
      let b = var_pt.(v) in
      let b =
        if b != empty then b
        else begin
          let b = Bits.create () in
          var_pt.(v) <- b;
          b
        end
      in
      ignore (Bits.add b h));
  {
    Solver.r_name = name;
    r_time = time;
    r_reach = reach;
    r_edges = edges;
    r_pt =
      (fun vr -> if vr >= 0 && vr < Array.length var_pt then var_pt.(vr) else empty);
    r_snapshot = dl_snapshot t ~time;
  }

let result_of_ci (t : E.t) p ~name ~time =
  let reach = Bits.create () in
  E.iter_tuples t "Reachable" (fun tup -> ignore (Bits.add reach tup.(0)));
  let edges = ref [] in
  E.iter_tuples t "CallEdge" (fun tup -> edges := (tup.(0), tup.(1)) :: !edges);
  result t p ~name ~time ~reach ~edges:!edges (fun add ->
      E.iter_tuples t "VPT" (fun tup -> add tup.(0) tup.(1)))

let result_of_cs (t : E.t) p (env : Context.env) ~name ~time =
  let reach = Bits.create () in
  E.iter_tuples t "ReachCS" (fun tup -> ignore (Bits.add reach tup.(1)));
  let edge_set = Hashtbl.create 1024 in
  E.iter_tuples t "CallEdgeCS" (fun tup ->
      Hashtbl.replace edge_set (tup.(1), tup.(3)) ());
  let edges = Hashtbl.fold (fun k () acc -> k :: acc) edge_set [] in
  result t p ~name ~time ~reach ~edges (fun add ->
      E.iter_tuples t "CVPT" (fun tup ->
          add tup.(1) (Context.obj_site env tup.(2))))

exception Timeout of Snapshot.t

(** Run a declarative analysis end to end. Raises {!Timeout} with the
    aborted engine's snapshot on budget expiry. [attr] collects
    per-rule/per-stratum cost attribution; [progress_s] enables the
    engine's heartbeat. *)
let run ?(budget = Timer.no_budget) ?attr ?progress_s (p : Ir.program)
    (kind : kind) : Solver.result =
  let t0 = Timer.now () in
  let t = create () in
  let span name f = Csc_obs.Trace.with_span ~cat:"datalog" name f in
  let load ~csc = span "load" (fun () -> Facts.load ~csc t p) in
  let solve t =
    try solve ~budget ?attr ?progress_s t
    with Timer.Out_of_budget ->
      raise (Timeout (dl_snapshot t ~time:(Timer.now () -. t0)))
  in
  match kind with
  | Ci | Csc_doop ->
    let csc = kind = Csc_doop in
    load ~csc;
    ci_rules t;
    if csc then csc_rules t;
    solve t;
    span "result" (fun () ->
        result_of_ci t p ~name:(kind_name kind) ~time:(Timer.now () -. t0))
  | Cs sel ->
    load ~csc:false;
    let env = Context.env p in
    cs_rules t env sel;
    solve t;
    span "result" (fun () ->
        result_of_cs t p env ~name:(kind_name kind) ~time:(Timer.now () -. t0))
