open Parsetree

(* Phase 1 of the analyzer (doc/STATIC_ANALYSIS.md): one
   self-contained summary per .ml file, extracted from the parsetree
   alone. The summary records what phase 2 (Callgraph + Reach) needs
   to run whole-program reachability rules — defined values with their
   referenced identifiers and effect flags, module-level mutable
   bindings, Parallel.Pool call sites, opens and includes for
   longident resolution, and the file's inline [@lint.allow] ranges.
   Engine's D1–D6 and D9 pass reads the same allow ranges and the same D4
   creator and D6 allocation scans. *)

type alloc = {
  al_what : string;  (* "a tuple", "constructor C", ... (rule D6 wording) *)
  al_line : int;
  al_col : int;
}

type value = {
  v_name : string;
  v_top : string;  (* name of the enclosing top-level binding; "" = is top-level *)
  v_line : int;
  v_col : int;
  v_off : int;
  v_is_fun : bool;  (* syntactic function: peels to parameters *)
  v_hot : bool;  (* carries [@lint.hot] *)
  v_cold : bool;  (* carries [@lint.cold]: sanctioned allocation point *)
  v_alloc : alloc option;  (* first of [allocs] in the body *)
  v_calls : string list;  (* heads of applications, "."-joined, first-occurrence order *)
  v_reads : string list;  (* every referenced non-local ident (calls included) *)
  v_local_calls : string list;  (* applied names bound by a local pattern/parameter *)
}

type mutable_binding = {
  m_name : string;
  m_creator : string;  (* "ref", "Hashtbl.create", ... *)
  m_line : int;
  m_col : int;
  m_off : int;
}

type pool_site = {
  p_fn : string;  (* head as written, e.g. "Parallel.Pool.map_list" *)
  p_top : string;  (* enclosing top-level binding, "" at module init *)
  p_line : int;
  p_col : int;
  p_off : int;
  p_roots : string list;  (* idents the closure argument references *)
  p_calls : string list;  (* the applied subset of p_roots *)
  p_local_calls : string list;  (* applied locals inside the closure body *)
}

type t = {
  s_file : string;
  s_dir : string;
  s_module : string;  (* capitalized basename, e.g. "Engine" *)
  s_opens : string list;  (* "Parallel", "Sim.Engine", ... in occurrence order *)
  s_includes : string list;
  s_aliases : (string * string) list;  (* module X = M: ("X", "M") *)
  s_values : value list;
  s_mutables : mutable_binding list;
  s_pool_sites : pool_site list;
  s_allows : (string * int * int) list;  (* (rule, first offset, last offset) *)
}

(* ------------------------------------------------------------------ *)
(* Small Parsetree helpers and the scans Engine's D4/D6 read *)

let flatten_ident e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> (
      match Longident.flatten txt with
      | parts -> Some parts
      | exception _ -> None)
  | _ -> None

let join = String.concat "."

let allow_rules_of_payload = function
  | PStr
      [ { pstr_desc =
            Pstr_eval
              ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
          _ } ] ->
      String.split_on_char ' ' s
      |> List.concat_map (String.split_on_char ',')
      |> List.filter (fun r -> r <> "")
  | _ -> []

let attr_has name (attrs : attributes) =
  List.exists (fun a -> a.attr_name.txt = name) attrs

(* Every variable a pattern binds (Ppat_var and Ppat_alias). *)
let pat_vars acc p =
  let vars = ref acc in
  let it =
    { Ast_iterator.default_iterator with
      pat =
        (fun it p ->
          (match p.ppat_desc with
          | Ppat_var { txt; _ } -> vars := txt :: !vars
          | Ppat_alias (_, { txt; _ }) -> vars := txt :: !vars
          | _ -> ());
          Ast_iterator.default_iterator.pat it p) }
  in
  it.pat it p;
  !vars

(* All pattern-bound names anywhere inside an expression (parameters,
   lets, match/try cases, ...). Scope-imprecise by design: a heuristic
   exclusion set for free-identifier collection. *)
let local_names_of_expr e0 =
  let vars = ref [] in
  let it =
    { Ast_iterator.default_iterator with
      pat =
        (fun it p ->
          (match p.ppat_desc with
          | Ppat_var { txt; _ } -> vars := txt :: !vars
          | Ppat_alias (_, { txt; _ }) -> vars := txt :: !vars
          | _ -> ());
          Ast_iterator.default_iterator.pat it p) }
  in
  it.expr it e0;
  !vars

(* D6's allocation markers (doc/STATIC_ANALYSIS.md). Constant
   constructors ([None], [[]]) and pattern matches are free; [raise]d
   exception constructors still count — a hot path should validate
   before it gets hot. *)
let alloc_marker e =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> Some "a closure"
  | Pexp_tuple _ -> Some "a tuple"
  | Pexp_record _ -> Some "a record"
  | Pexp_array _ -> Some "an array literal"
  | Pexp_lazy _ -> Some "a lazy block"
  | Pexp_construct ({ txt; _ }, Some _) -> (
      match Longident.flatten txt with
      | parts -> Some ("constructor " ^ join parts)
      | exception _ -> Some "a constructor application")
  | Pexp_variant (tag, Some _) -> Some ("variant `" ^ tag)
  | Pexp_apply (f, _) -> (
      match flatten_ident f with
      | Some ([ "ref" ] | [ "Stdlib"; "ref" ]) -> Some "a ref cell"
      | _ -> None)
  | _ -> None

(* D4: creators of shared mutable cells. [Atomic.make], [Mutex.create]
   and [Domain.DLS.new_key] are deliberately absent — they are the
   sanctioned forms of module-level state. *)
let d4_creator = function
  | [ "ref" ] | [ "Stdlib"; "ref" ] -> Some "ref"
  | [ "Hashtbl"; "create" ] -> Some "Hashtbl.create"
  | [ "Queue"; "create" ] -> Some "Queue.create"
  | [ "Stack"; "create" ] -> Some "Stack.create"
  | [ "Buffer"; "create" ] -> Some "Buffer.create"
  | [ "Array"; ("make" | "create_float" | "init") as f ] ->
      Some ("Array." ^ f)
  | [ "Bytes"; ("create" | "make") as f ] -> Some ("Bytes." ^ f)
  | _ -> None

let is_pool_head parts =
  match List.rev parts with
  | ("map" | "map_array" | "map_list") :: "Pool" :: _ -> true
  | _ -> false

(* Peel the leading [fun]/[newtype] parameters of a function binding;
   a trailing [function] stays, and [allocs] and [param_vars] read its
   cases as the last parameter. *)
let rec peel_params e =
  match e.pexp_desc with
  | Pexp_fun (_, _, _, body) | Pexp_newtype (_, body) -> peel_params body
  | _ -> e

let is_syntactic_fun e =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_newtype _ | Pexp_function _ -> true
  | _ -> false

(* Names bound by the parameters [peel_params] strips, the cases of a
   trailing [function] included. *)
let rec param_vars acc e =
  match e.pexp_desc with
  | Pexp_fun (_, _, p, body) -> param_vars (pat_vars acc p) body
  | Pexp_newtype (_, body) -> param_vars acc body
  | Pexp_function cases ->
      List.fold_left (fun acc c -> pat_vars acc c.pc_lhs) acc cases
  | _ -> acc

(* ------------------------------------------------------------------ *)
(* Reference collection *)

type refs = {
  mutable r_calls : string list;  (* reversed *)
  mutable r_reads : string list;
  mutable r_locals : string list;
  mutable r_seen : (string, unit) Hashtbl.t;
}

let fresh_refs () =
  { r_calls = []; r_reads = []; r_locals = []; r_seen = Hashtbl.create 16 }

let push seen key tag lst =
  let k = tag ^ key in
  if Hashtbl.mem seen k then lst
  else begin
    Hashtbl.add seen k ();
    key :: lst
  end

(* Collect referenced identifiers in [e0]. [excl] holds locally-bound
   names (minus names that are recorded module values, which stay
   resolvable); [recorded] is that exception set. A parameter of [e0]
   itself shadows a recorded value of the same name: inside the body
   the name is the argument, not the module's binding. *)
let collect_refs ~excl ~recorded e0 =
  let r = fresh_refs () in
  let params = param_vars [] e0 in
  let is_local n =
    List.mem n params || (Hashtbl.mem excl n && not (Hashtbl.mem recorded n))
  in
  let note_ident ~applied parts =
    let name = join parts in
    match parts with
    | [ n ] when is_local n ->
        if applied then r.r_locals <- push r.r_seen n "l:" r.r_locals
    | _ ->
        r.r_reads <- push r.r_seen name "r:" r.r_reads;
        if applied then r.r_calls <- push r.r_seen name "c:" r.r_calls
  in
  let it =
    { Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_apply (f, _) -> (
              match flatten_ident f with
              | Some parts -> note_ident ~applied:true parts
              | None -> ())
          | Pexp_ident _ -> (
              match flatten_ident e with
              | Some parts -> note_ident ~applied:false parts
              | None -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr it e) }
  in
  it.expr it e0;
  ( List.rev r.r_calls,
    List.rev r.r_reads,
    List.rev r.r_locals )

(* Every D6 allocation site of a function body ([e] already peeled of
   its parameters), in traversal order. A trailing [function] is the
   last parameter: its cases are scanned, the node itself is free. *)
let allocs e =
  let sites = ref [] in
  let it =
    { Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match alloc_marker e with
          | Some what -> sites := (what, e.pexp_loc) :: !sites
          | None -> ());
          Ast_iterator.default_iterator.expr it e) }
  in
  (match e.pexp_desc with
  | Pexp_function cases ->
      List.iter
        (fun c ->
          Option.iter (it.expr it) c.pc_guard;
          it.expr it c.pc_rhs)
        cases
  | _ -> it.expr it e);
  List.rev !sites

(* Every D4 creator that runs at module initialisation, in traversal
   order: the scan stops at function and lazy boundaries, where
   creation happens per call instead. *)
let creators e0 =
  let sites = ref [] in
  let it =
    { Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          match e.pexp_desc with
          | Pexp_fun _ | Pexp_function _ | Pexp_lazy _ -> ()
          | Pexp_apply (fn, _) ->
              (match Option.bind (flatten_ident fn) d4_creator with
              | Some name -> sites := (name, e.pexp_loc) :: !sites
              | None -> ());
              Ast_iterator.default_iterator.expr it e
          | _ -> Ast_iterator.default_iterator.expr it e) }
  in
  it.expr it e0;
  List.rev !sites

(* ------------------------------------------------------------------ *)
(* Extraction *)

type acc = {
  mutable a_values : value list;  (* reversed *)
  mutable a_mutables : mutable_binding list;
  mutable a_pool : pool_site list;
  mutable a_opens : string list;
  mutable a_includes : string list;
  mutable a_aliases : (string * string) list;
  mutable a_allows : (string * int * int) list;
  a_recorded : (string, unit) Hashtbl.t;  (* names of recorded values *)
}

let record_allow acc (attr : attribute) ~first ~last =
  if attr.attr_name.txt = "lint.allow" then
    List.iter
      (fun r -> acc.a_allows <- (r, first, last) :: acc.a_allows)
      (allow_rules_of_payload attr.attr_payload)

let record_allow_loc acc attr (loc : Location.t) =
  record_allow acc attr ~first:loc.loc_start.pos_cnum
    ~last:loc.loc_end.pos_cnum

let binding_name vb =
  let rec go p =
    match p.ppat_desc with
    | Ppat_var { txt; _ } -> Some txt
    | Ppat_constraint (p, _) -> go p
    | _ -> None
  in
  go vb.pvb_pat

(* Pass A: names of every binding that will be recorded as a value, so
   reference collection can keep them resolvable even though they are
   also pattern-bound. Top-level bindings are all recorded; nested
   bindings only when they are syntactic functions. *)
let collect_recorded acc ast =
  let expr_h it e =
    (match e.pexp_desc with
    | Pexp_let (_, vbs, _) ->
        List.iter
          (fun vb ->
            match binding_name vb with
            | Some n when is_syntactic_fun vb.pvb_expr ->
                Hashtbl.replace acc.a_recorded n ()
            | _ -> ())
          vbs
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let structure_item_h it si =
    (match si.pstr_desc with
    | Pstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            match binding_name vb with
            | Some n -> Hashtbl.replace acc.a_recorded n ()
            | None -> ())
          vbs
    | _ -> ());
    Ast_iterator.default_iterator.structure_item it si
  in
  let it =
    { Ast_iterator.default_iterator with
      expr = expr_h;
      structure_item = structure_item_h }
  in
  it.structure it ast

let mk_value acc ~top vb =
  match binding_name vb with
  | None -> None
  | Some name ->
      let p = vb.pvb_loc.Location.loc_start in
      let excl = Hashtbl.create 16 in
      List.iter
        (fun n -> Hashtbl.replace excl n ())
        (pat_vars (local_names_of_expr vb.pvb_expr) vb.pvb_pat);
      let calls, reads, local_calls =
        collect_refs ~excl ~recorded:acc.a_recorded vb.pvb_expr
      in
      Some
        { v_name = name;
          v_top = top;
          v_line = p.pos_lnum;
          v_col = p.pos_cnum - p.pos_bol;
          v_off = p.pos_cnum;
          v_is_fun = is_syntactic_fun vb.pvb_expr;
          v_hot = attr_has "lint.hot" vb.pvb_attributes;
          v_cold = attr_has "lint.cold" vb.pvb_attributes;
          v_alloc =
            (match allocs (peel_params vb.pvb_expr) with
            | (what, loc) :: _ ->
                let p = loc.Location.loc_start in
                Some
                  { al_what = what;
                    al_line = p.pos_lnum;
                    al_col = p.pos_cnum - p.pos_bol }
            | [] -> None);
          v_calls = calls;
          v_reads = reads;
          v_local_calls = local_calls }

let pool_site_of acc ~top e fnparts args =
  let p = e.pexp_loc.Location.loc_start in
  let roots = ref [] in
  let applied = ref [] in
  let locals = ref [] in
  let seen = Hashtbl.create 8 in
  let add_refs arg =
    let excl = Hashtbl.create 16 in
    List.iter
      (fun n -> Hashtbl.replace excl n ())
      (local_names_of_expr arg);
    let calls, reads, local_calls =
      collect_refs ~excl ~recorded:acc.a_recorded arg
    in
    List.iter (fun n -> applied := push seen n "c:" !applied) calls;
    List.iter (fun n -> roots := push seen n "r:" !roots) reads;
    List.iter (fun n -> locals := push seen n "l:" !locals) local_calls
  in
  List.iter
    (fun (lbl, arg) ->
      match lbl with Asttypes.Nolabel -> add_refs arg | _ -> ())
    args;
  { p_fn = join fnparts;
    p_top = top;
    p_line = p.pos_lnum;
    p_col = p.pos_cnum - p.pos_bol;
    p_off = p.pos_cnum;
    p_roots = List.rev !roots;
    p_calls = List.rev !applied;
    p_local_calls = List.rev !locals }

let longident_of_module_expr me =
  match me.pmod_desc with
  | Pmod_ident { txt; _ } -> (
      match Longident.flatten txt with
      | parts -> Some (join parts)
      | exception _ -> None)
  | _ -> None

(* Pass B: values (top-level and nested functions), pool sites, opens,
   includes, allow ranges. [top] tracks the enclosing top-level
   binding name for scoped resolution in phase 2. *)
let collect acc ast =
  let top = ref "" in
  let add_value ~top vb =
    match mk_value acc ~top vb with
    | Some v -> acc.a_values <- v :: acc.a_values
    | None -> ()
  in
  let expr_h it e =
    List.iter
      (fun a -> record_allow_loc acc a e.pexp_loc)
      e.pexp_attributes;
    (match e.pexp_desc with
    | Pexp_let (_, vbs, _) ->
        List.iter
          (fun vb ->
            List.iter
              (fun a -> record_allow_loc acc a vb.pvb_loc)
              vb.pvb_attributes;
            if is_syntactic_fun vb.pvb_expr then add_value ~top:!top vb)
          vbs
    | Pexp_open ({ popen_expr; _ }, _) ->
        (match longident_of_module_expr popen_expr with
        | Some m ->
            if not (List.mem m acc.a_opens) then
              acc.a_opens <- acc.a_opens @ [ m ]
        | None -> ())
    | Pexp_apply (fn, args) ->
        (match flatten_ident fn with
        | Some parts when is_pool_head parts ->
            acc.a_pool <- pool_site_of acc ~top:!top e parts args :: acc.a_pool
        | _ -> ())
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let structure_item_h it si =
    match si.pstr_desc with
    | Pstr_attribute attr ->
        record_allow acc attr ~first:0 ~last:max_int;
        Ast_iterator.default_iterator.structure_item it si
    | Pstr_open { popen_expr; _ } ->
        (match longident_of_module_expr popen_expr with
        | Some m ->
            if not (List.mem m acc.a_opens) then
              acc.a_opens <- acc.a_opens @ [ m ]
        | None -> ());
        Ast_iterator.default_iterator.structure_item it si
    | Pstr_module { pmb_name = { txt = Some alias; _ }; pmb_expr; _ } ->
        (match longident_of_module_expr pmb_expr with
        | Some m ->
            if not (List.mem_assoc alias acc.a_aliases) then
              acc.a_aliases <- acc.a_aliases @ [ (alias, m) ]
        | None -> ());
        Ast_iterator.default_iterator.structure_item it si
    | Pstr_include { pincl_mod; _ } ->
        (match longident_of_module_expr pincl_mod with
        | Some m ->
            if not (List.mem m acc.a_includes) then
              acc.a_includes <- acc.a_includes @ [ m ]
        | None -> ());
        Ast_iterator.default_iterator.structure_item it si
    | Pstr_value (_, vbs) ->
        (* Iterate the bindings by hand so [top] names the enclosing
           top-level binding while its body is walked. *)
        List.iter
          (fun vb ->
            List.iter
              (fun a -> record_allow_loc acc a vb.pvb_loc)
              vb.pvb_attributes;
            add_value ~top:"" vb;
            (* Module-level mutable state: recorded on every file
               regardless of scope, since phase 2 needs the state map
               even where D4 itself would not fire. *)
            (match creators vb.pvb_expr with
            | (creator, _) :: _ -> (
                match binding_name vb with
                | Some n ->
                    let p = vb.pvb_loc.Location.loc_start in
                    acc.a_mutables <-
                      { m_name = n;
                        m_creator = creator;
                        m_line = p.pos_lnum;
                        m_col = p.pos_cnum - p.pos_bol;
                        m_off = p.pos_cnum }
                      :: acc.a_mutables
                | None -> ())
            | [] -> ());
            top := (match binding_name vb with Some n -> n | None -> "");
            it.expr it vb.pvb_expr;
            top := "")
          vbs
    | _ -> Ast_iterator.default_iterator.structure_item it si
  in
  let it =
    { Ast_iterator.default_iterator with
      expr = expr_h;
      structure_item = structure_item_h }
  in
  it.structure it ast

let module_name_of_file file =
  String.capitalize_ascii
    (Filename.remove_extension (Filename.basename file))

let of_structure ~file ast =
  let acc =
    { a_values = [];
      a_mutables = [];
      a_pool = [];
      a_opens = [];
      a_includes = [];
      a_aliases = [];
      a_allows = [];
      a_recorded = Hashtbl.create 64 }
  in
  collect_recorded acc ast;
  collect acc ast;
  { s_file = file;
    s_dir = Filename.dirname file;
    s_module = module_name_of_file file;
    s_opens = acc.a_opens;
    s_includes = acc.a_includes;
    s_aliases = acc.a_aliases;
    s_values = List.rev acc.a_values;
    s_mutables = List.rev acc.a_mutables;
    s_pool_sites = List.rev acc.a_pool;
    s_allows = acc.a_allows }

(* [allows_at t ~rule ~off]: is [rule] suppressed at byte offset [off]
   by an inline [@lint.allow] range? The cross-module suppression hook:
   phase 2 consults the *target* module's ranges, so an allow on the
   state binding (or a floating allow in the state's file) sanctions
   every path that reaches it. *)
let allows_at t ~rule ~off =
  List.exists
    (fun (r, first, last) ->
      (r = "*" || r = rule) && off >= first && off <= last)
    t.s_allows
