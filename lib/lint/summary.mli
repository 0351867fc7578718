(** Phase 1 of the analyzer: one per-module summary, extracted from a
    file's parsetree alone, carrying everything phase 2 ({!Callgraph}
    linking + {!Reach} reachability rules D7/D8) needs. It is the one
    home of phase-1 evidence: {!Engine}'s D1–D6 and D9 pass reads its allow
    ranges ({!allows_at}) and its D4 and D6 scans ({!creators},
    {!allocs}). *)

type alloc = {
  al_what : string;  (** rule-D6 wording: "a tuple", "a closure", ... *)
  al_line : int;
  al_col : int;
}

type value = {
  v_name : string;
  v_top : string;
      (** enclosing top-level binding name; [""] when top-level itself.
          Phase-2 resolution of an unqualified name prefers values with
          the caller's [v_top], then top-level values. *)
  v_line : int;
  v_col : int;
  v_off : int;  (** byte offset, for inline-allow suppression *)
  v_is_fun : bool;  (** syntactic function (has parameters) *)
  v_hot : bool;  (** carries [[@lint.hot]] — a D8 root *)
  v_cold : bool;
      (** carries [[@lint.cold]] — a sanctioned allocation point;
          D8 traversal stops here without descending *)
  v_alloc : alloc option;
      (** the first of {!allocs} in the body stripped by {!peel_params} *)
  v_calls : string list;  (** heads of applications, "."-joined *)
  v_reads : string list;  (** every referenced non-local ident *)
  v_local_calls : string list;
      (** applied names bound by a parameter or local pattern — callees
          a parse-only pass cannot know ("cannot prove") *)
}

type mutable_binding = {
  m_name : string;
  m_creator : string;
  m_line : int;
  m_col : int;
  m_off : int;
}

type pool_site = {
  p_fn : string;  (** head as written, e.g. ["Parallel.Pool.map_list"] *)
  p_top : string;  (** enclosing top-level binding, [""] at module init *)
  p_line : int;
  p_col : int;
  p_off : int;
  p_roots : string list;  (** idents the closure argument references *)
  p_calls : string list;  (** the applied subset of [p_roots] *)
  p_local_calls : string list;
}

type t = {
  s_file : string;
  s_dir : string;
  s_module : string;  (** capitalized basename, e.g. ["Engine"] *)
  s_opens : string list;
  s_includes : string list;
  s_aliases : (string * string) list;
      (** top-level [module X = M] aliases, [("X", "M")]; qualified
          resolution rewrites the first segment through these *)
  s_values : value list;
  s_mutables : mutable_binding list;
      (** module-level mutable bindings, each with the first of its
          {!creators}, recorded on every file regardless of lint scope
          — phase 2's state map *)
  s_pool_sites : pool_site list;
  s_allows : (string * int * int) list;
      (** inline [[@lint.allow]] ranges: (rule, first, last) offsets *)
}

val of_structure : file:string -> Parsetree.structure -> t

val flatten_ident : Parsetree.expression -> string list option
(** The segments of an identifier expression ([Some ["List"; "map"]]
    for [List.map]); [None] for any other expression. *)

val peel_params : Parsetree.expression -> Parsetree.expression
(** Strip a binding's leading [fun] and [newtype] parameters. A
    trailing [function] stays: {!allocs} reads its cases as the last
    parameter. *)

val allocs : Parsetree.expression -> (string * Location.t) list
(** Rule D6: every heap-allocation site of a body stripped by
    {!peel_params}, in traversal order, with its rule-D6 wording ("a
    tuple", "constructor Some", ...). A trailing [function] is the
    last parameter: its guards and right-hand sides are scanned, and
    the node itself is free. *)

val creators : Parsetree.expression -> (string * Location.t) list
(** Rule D4: every creator of mutable state ([ref], [Hashtbl.create],
    [Array.make], ...) that runs when a top-level binding's expression
    is evaluated at module initialisation, in traversal order, named
    as D4 reports it. The scan stops at [fun], [function] and [lazy],
    where creation happens per call. *)

val module_name_of_file : string -> string

val allows_at : t -> rule:string -> off:int -> bool
(** Is [rule] suppressed at byte offset [off] by an inline allow range
    of this file? Phase 2 consults the {e target} module's ranges too,
    which is what makes suppression cross-module: an allow on a state
    binding sanctions every path that reaches it. *)
