(* Phase 2 linking: index the per-module summaries and resolve
   referenced identifiers to defined values or module-level mutable
   bindings. Resolution is a parse-only heuristic (no typing, no
   cmi files); doc/STATIC_ANALYSIS.md documents the order:

   - unqualified [f]: the module's own mutable bindings plus its
     values (preferring those nested under the caller's top-level
     binding, then top-level values); then each [open]/[include]d
     module, qualified. A call to one of the caller's own parameters
     never gets here: phase 1 records it as a local call.
   - qualified [M.f]: module [M] in the same directory first (dune
     wraps each lib directory, so in-library references are bare),
     then a unique global match; ambiguity resolves to nothing
     (phase 2 reports "cannot prove" rather than guessing).
   - library-qualified [L.M.f]: [L] is the capitalized directory
     basename (e.g. [Sim.Engine.run] -> lib/sim/engine.ml).
   - a nested module [M.Sub.f] (no library [M] with a module [Sub]):
     file [M], whose summary holds [Sub]'s values among its own.
   - [include]s of the target module are searched when [f] is not
     defined in [M] itself. *)

type target =
  | Value of Summary.t * Summary.value
  | Mutable of Summary.t * Summary.mutable_binding

type t = {
  cg_sums : Summary.t list;  (* input order (sorted file order) *)
  by_module : (string, Summary.t list) Hashtbl.t;
  by_libmod : (string, Summary.t) Hashtbl.t;  (* "Sim.Engine" -> summary *)
}

let summaries t = t.cg_sums

let dir_alias dir = String.capitalize_ascii (Filename.basename dir)

let build sums =
  let by_module = Hashtbl.create 64 in
  let by_libmod = Hashtbl.create 64 in
  List.iter
    (fun (s : Summary.t) ->
      let prev =
        match Hashtbl.find_opt by_module s.s_module with
        | Some l -> l
        | None -> []
      in
      Hashtbl.replace by_module s.s_module (prev @ [ s ]);
      Hashtbl.replace by_libmod (dir_alias s.s_dir ^ "." ^ s.s_module) s)
    sums;
  { cg_sums = sums; by_module; by_libmod }

(* Find the summary a module path denotes, seen from [from]. A path
   that names no file module goes on as its prefix: [M.Sub] is a
   module nested in file [M] (or [L.M.Sub] in [L.M]), whose summary
   holds the nested module's values among its own. *)
let rec find_module t ~(from : Summary.t) mpath =
  match mpath with
  | [] -> None
  | [ m ] -> (
      let cands =
        match Hashtbl.find_opt t.by_module m with Some l -> l | None -> []
      in
      match
        List.filter (fun (s : Summary.t) -> s.s_dir = from.s_dir) cands
      with
      | [ s ] -> Some s
      | _ :: _ -> None (* same-dir ambiguity: give up *)
      | [] -> ( match cands with [ s ] -> Some s | _ -> None))
  | [ l; m ] -> (
      match Hashtbl.find_opt t.by_libmod (l ^ "." ^ m) with
      | Some s -> Some s
      | None -> find_module t ~from [ l ])
  | l :: m :: _ :: _ -> find_module t ~from [ l; m ]

let top_values (s : Summary.t) name =
  List.filter
    (fun (v : Summary.value) -> v.v_name = name && v.v_top = "")
    s.s_values

let module_mutables (s : Summary.t) name =
  List.filter (fun (m : Summary.mutable_binding) -> m.m_name = name)
    s.s_mutables

(* [name] as visible from outside module [s]: its top-level values and
   mutables (a [let hits = ref 0] is both — D7 needs the Mutable, D8
   the Value, so both are returned), then any [include]d module's. *)
let rec exported t ~depth (s : Summary.t) name =
  let ms = List.map (fun m -> Mutable (s, m)) (module_mutables s name) in
  let vs = List.map (fun v -> Value (s, v)) (top_values s name) in
  match ms @ vs with
  | _ :: _ as r -> r
  | [] ->
      if depth > 2 then []
      else
        List.concat_map
          (fun inc ->
            match
              find_module t ~from:s (String.split_on_char '.' inc)
            with
            | Some s' -> exported t ~depth:(depth + 1) s' name
            | None -> [])
          s.s_includes

(* [module Rta = Rtsched.Rta_uniproc] in the referencing file rewrites
   a leading [Rta] to [Rtsched.Rta_uniproc]. *)
let apply_alias (from : Summary.t) = function
  | seg :: rest as mpath -> (
      match List.assoc_opt seg from.s_aliases with
      | Some full -> String.split_on_char '.' full @ rest
      | None -> mpath)
  | [] -> []

let resolve_qualified t ~from segs =
  match List.rev segs with
  | [] -> []
  | name :: rev_mpath -> (
      let mpath = apply_alias from (List.rev rev_mpath) in
      match find_module t ~from mpath with
      | Some s -> exported t ~depth:0 s name
      | None -> [])

(* [resolve t ~from ~top name]: all plausible targets of [name]
   referenced from a value with top-level ancestor [top] in module
   [from]. Empty = unknown (external or unresolvable). *)
let resolve t ~(from : Summary.t) ~top name =
  match String.split_on_char '.' name with
  | [] -> []
  | [ n ] -> (
      let cands =
        List.filter (fun (v : Summary.value) -> v.v_name = n) from.s_values
      in
      let scoped =
        if top = "" then []
        else
          List.filter
            (fun (v : Summary.value) -> v.v_top = top || v.v_name = top)
            cands
      in
      let chosen =
        match scoped with
        | _ :: _ -> scoped
        | [] -> (
            match
              List.filter (fun (v : Summary.value) -> v.v_top = "") cands
            with
            | _ :: _ as tops -> tops
            | [] -> cands)
      in
      let ms =
        List.map (fun m -> Mutable (from, m)) (module_mutables from n)
      in
      match ms @ List.map (fun v -> Value (from, v)) chosen with
      | _ :: _ as r -> r
      | [] ->
          List.concat_map
            (fun o ->
              resolve_qualified t ~from
                (String.split_on_char '.' o @ [ n ]))
            (from.s_opens @ from.s_includes))
  | segs -> resolve_qualified t ~from segs
