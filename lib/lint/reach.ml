(* Phase 2 rules over the linked call graph (doc/STATIC_ANALYSIS.md):

   D7 "pool-closure race detector" — nothing transitively reachable
   from a closure passed to Parallel.Pool.map/map_array/map_list may
   touch unsanctioned module-level mutable state. Atomic / Mutex /
   Domain.DLS are the sanctioned primitives (never recorded as mutable
   state by Summary), lib/obs is the sanctioned instrumentation sink
   (its tables sit behind the registry mutex; not traversed), and an
   inline [@lint.allow "D7"] (or "D4") on the state binding — or
   anywhere in the state's file — sanctions every path that reaches
   it, which is what makes suppression cross-module.

   D8 "transitive hot-path allocation" — D6 extended over the full
   callee cone of every [@lint.hot] binding. A callee marked
   [@lint.cold] (or carrying [@lint.allow "D8"]) is a sanctioned
   allocation point and is not descended into.

   Both rules refuse to guess: a callee the resolver cannot find and
   the builtin tables do not know — or a call through a parameter /
   locally-bound function — is reported as a "cannot prove" note
   (never a finding, never a silent pass). Findings land at the root
   site (the hot binding / the pool call), with the offending call
   path spelled out, because that is where the contract was
   promised. *)

let strip_stdlib name =
  match String.index_opt name '.' with
  | Some 6 when String.starts_with ~prefix:"Stdlib." name ->
      String.sub name 7 (String.length name - 7)
  | _ -> name

(* Calls that never heap-allocate (D8) and never touch repo state
   (D7). Error raisers (invalid_arg, failwith, raise) are listed as
   safe: they allocate only on the failure path, which a hot binding
   validates before it gets hot (same stance as rule D6). *)
let safe_calls =
  [ "+"; "-"; "*"; "/"; "mod"; "land"; "lor"; "lxor"; "lsl"; "lsr"; "asr";
    "~-"; "~+"; "not"; "&&"; "||"; "="; "<>"; "<"; "<="; ">"; ">="; "==";
    "!="; "compare"; "min"; "max"; "abs"; "succ"; "pred"; "incr"; "decr";
    "!"; ":="; "<-"; "ignore"; "fst"; "snd"; "raise"; "raise_notrace";
    "failwith"; "invalid_arg"; "assert"; "@@"; "|>"; "+."; "-."; "*."; "/.";
    "**"; "float_of_int"; "int_of_float"; "truncate"; "char_of_int";
    "int_of_char"; "lnot"; "exp"; "log"; "log10"; "log2"; "sqrt"; "floor";
    "ceil"; "sin"; "cos"; "tan"; "asin"; "acos"; "atan"; "atan2"; "sinh";
    "cosh"; "tanh"; "mod_float"; "ldexp"; "copysign"; "classify_float";
    "round"; "expm1"; "log1p"; "hypot";
    "Array.get"; "Array.set"; "Array.length"; "Array.unsafe_get";
    "Array.unsafe_set"; "Array.fill"; "Array.blit"; "Array.iter";
    "Array.iteri"; "Array.fold_left"; "Array.sort"; "Array.exists";
    "Array.for_all";
    "String.get"; "String.length"; "String.unsafe_get"; "String.compare";
    "String.equal";
    "Bytes.get"; "Bytes.set"; "Bytes.length"; "Bytes.unsafe_get";
    "Bytes.unsafe_set"; "Bytes.fill"; "Bytes.blit";
    "Char.code"; "Char.chr";
    "Int.compare"; "Int.equal"; "Int.min"; "Int.max"; "Int.abs";
    "Float.compare"; "Float.equal"; "Float.min"; "Float.max";
    "Float.of_int"; "Float.to_int"; "Float.abs"; "Float.is_nan";
    "Bool.not";
    "Hashtbl.find"; "Hashtbl.find_opt"; "Hashtbl.mem"; "Hashtbl.length";
    "List.length"; "List.iter"; "List.fold_left"; "List.exists";
    "List.for_all"; "List.mem"; "List.hd"; "List.tl";
    "Atomic.get"; "Atomic.set"; "Atomic.exchange"; "Atomic.incr";
    "Atomic.decr"; "Atomic.fetch_and_add"; "Atomic.compare_and_set";
    "Mutex.lock"; "Mutex.unlock";
    "Lazy.force"; "Fun.id"; "Option.is_some"; "Option.is_none";
    "Option.get"; "Sys.opaque_identity"; "Domain.self" ]

(* Calls that definitely heap-allocate (D8 violations on a hot cone). *)
let alloc_calls =
  [ "ref"; "@"; "^";
    "Array.make"; "Array.init"; "Array.create_float"; "Array.copy";
    "Array.append"; "Array.sub"; "Array.of_list"; "Array.to_list";
    "Array.map"; "Array.mapi"; "Array.map2";
    "List.map"; "List.mapi"; "List.map2"; "List.rev_map"; "List.filter";
    "List.filter_map"; "List.concat"; "List.concat_map"; "List.append";
    "List.rev"; "List.init"; "List.sort"; "List.stable_sort";
    "List.sort_uniq"; "List.cons"; "List.of_seq"; "List.to_seq";
    "String.make"; "String.init"; "String.sub"; "String.concat";
    "String.map"; "String.split_on_char"; "String.cat";
    "Bytes.create"; "Bytes.make"; "Bytes.sub"; "Bytes.of_string";
    "Bytes.to_string";
    "Buffer.create"; "Buffer.contents"; "Buffer.add_string";
    "Buffer.add_char"; "Buffer.add_subbytes";
    "Printf.sprintf"; "Format.asprintf"; "Format.sprintf";
    "Hashtbl.create"; "Hashtbl.copy"; "Hashtbl.fold";
    "Hashtbl.to_seq"; "Hashtbl.add"; "Hashtbl.replace";
    "Queue.create"; "Stack.create"; "Atomic.make";
    "Option.some"; "Option.map"; "Option.value"; "Option.bind";
    "Result.ok"; "Result.error"; "Result.map";
    "Seq.map"; "Seq.filter"; "Seq.cons";
    "string_of_int"; "string_of_float"; "string_of_bool";
    "float_of_string"; "int_of_string"; "Printexc.to_string" ]

(* Stdlib (and otherlibs) module heads: calls into these cannot touch
   this repository's module-level state, so D7 treats them as known
   even when D8 could not prove allocation-freedom. *)
let stdlib_modules =
  [ "Stdlib"; "Array"; "List"; "String"; "Bytes"; "Char"; "Int"; "Float";
    "Bool"; "Option"; "Result"; "Seq"; "Map"; "Set"; "Hashtbl"; "Queue";
    "Stack"; "Buffer"; "Printf"; "Format"; "Scanf"; "Lazy"; "Fun"; "Sys";
    "Filename"; "In_channel"; "Out_channel"; "Digest"; "Marshal"; "Atomic";
    "Mutex"; "Condition"; "Semaphore"; "Domain"; "Either"; "Unit"; "Obj";
    "Printexc"; "Arg"; "Lexing"; "Parsing"; "Uchar"; "Int32"; "Int64";
    "Nativeint"; "Complex"; "Gc"; "Weak"; "Ephemeron"; "Callback";
    "Effect"; "Unix" ]

(* Write-once lookup tables, populated at module init and only ever
   read afterwards. *)
let safe_tbl = Hashtbl.create 256 [@@lint.allow "D4"]
let alloc_tbl = Hashtbl.create 256 [@@lint.allow "D4"]
let stdlib_tbl = Hashtbl.create 64 [@@lint.allow "D4"]

let () =
  List.iter (fun n -> Hashtbl.replace safe_tbl n ()) safe_calls;
  List.iter (fun n -> Hashtbl.replace alloc_tbl n ()) alloc_calls;
  List.iter (fun n -> Hashtbl.replace stdlib_tbl n ()) stdlib_modules

type extern = Safe | Alloc | Stdlib_unknown | Extern_unknown

let classify_extern name =
  let n = strip_stdlib name in
  if Hashtbl.mem safe_tbl n then Safe
  else if Hashtbl.mem alloc_tbl n then Alloc
  else
    match String.split_on_char '.' n with
    | m :: _ :: _ when Hashtbl.mem stdlib_tbl m -> Stdlib_unknown
    | _ -> Extern_unknown

(* The sanctioned instrumentation sink: lib/obs (Hydra_obs) keeps its
   metrics in tables behind one mutex and its events and flight ring
   in atomics; D7 does not descend into it. *)
let is_obs (s : Summary.t) =
  s.s_module = "Hydra_obs"
  || Filename.basename s.s_dir = "obs"
     && Filename.basename (Filename.dirname s.s_dir) = "lib"

let display (s : Summary.t) (v : Summary.value) =
  s.s_module ^ "." ^ v.v_name

let path_str path = String.concat " -> " (List.rev path)

(* ------------------------------------------------------------------ *)
(* Generic cone walk *)

type item = {
  i_sum : Summary.t;
  i_val : Summary.value;
  i_path : string list;  (* reversed display names, root first at end *)
}

(* Breadth-first walk of the callee cone rooted at [roots]. For each
   visited value, [visit] sees the value and the path to it; [descend]
   decides whether to enter a resolved target; [on_extern] handles a
   call that resolved to nothing. Deterministic: FIFO queue, summary
   and value order comes from the sorted file walk. *)
let walk graph ~roots ~visit ~descend_sanctioned ~on_extern ~on_local =
  let visited = Hashtbl.create 64 in
  let q = Queue.create () in
  let enqueue (s : Summary.t) (v : Summary.value) path =
    let key = (s.s_file, v.v_off) in
    if not (Hashtbl.mem visited key) then begin
      Hashtbl.replace visited key ();
      Queue.add { i_sum = s; i_val = v; i_path = path } q
    end
  in
  List.iter (fun (s, v, path) -> enqueue s v path) roots;
  while not (Queue.is_empty q) do
    let { i_sum = s; i_val = v; i_path = path } = Queue.pop q in
    visit s v path;
    List.iter (fun n -> on_local s v path n) v.v_local_calls;
    List.iter
      (fun name ->
        let applied = List.mem name v.v_calls in
        match Callgraph.resolve graph ~from:s ~top:v.v_top name with
        | [] -> if applied then on_extern s v path name
        | targets ->
            List.iter
              (fun t ->
                match t with
                | Callgraph.Value (s', v') ->
                    if applied || v'.Summary.v_is_fun then
                      if not (descend_sanctioned s' v') then
                        enqueue s' v' (display s' v' :: path)
                | Callgraph.Mutable _ -> ())
              targets)
      v.v_reads
  done

(* Mutable-state touches need the raw reads of each visited value. *)
let mutable_touches graph (s : Summary.t) (v : Summary.value) =
  List.concat_map
    (fun name ->
      List.filter_map
        (fun t ->
          match t with
          | Callgraph.Mutable (s', m) -> Some (name, s', m)
          | Callgraph.Value _ -> None)
        (Callgraph.resolve graph ~from:s ~top:v.v_top name))
    v.v_reads

(* ------------------------------------------------------------------ *)
(* D8: transitive hot-path allocation *)

let sanctioned_cold (s : Summary.t) (v : Summary.value) =
  v.v_cold || Summary.allows_at s ~rule:"D8" ~off:v.v_off

let d8_root findings notes (root_sum : Summary.t) (root : Summary.value) =
  let mk_finding msg =
    findings :=
      Finding.make_pos ~rule:"D8" ~file:root_sum.s_file ~line:root.v_line
        ~col:root.v_col ~off:root.v_off ~msg
      :: !findings
  in
  let mk_note msg =
    notes :=
      Finding.make_pos ~rule:"D8" ~file:root_sum.s_file ~line:root.v_line
        ~col:root.v_col ~off:root.v_off ~msg
      :: !notes
  in
  let seen_alloc = Hashtbl.create 8 and seen_note = Hashtbl.create 8 in
  let root_name = root.v_name in
  fun graph ->
    walk graph
      ~roots:[ (root_sum, root, [ display root_sum root ]) ]
      ~descend_sanctioned:sanctioned_cold
      ~visit:(fun s v path ->
        (* The root's own body is rule D6's job; D8 owns the cone. *)
        if v.v_off <> root.v_off || s.s_file <> root_sum.s_file then
          match v.v_alloc with
          | Some a ->
              let key = s.s_file ^ ":" ^ string_of_int v.v_off in
              if not (Hashtbl.mem seen_alloc key) then begin
                Hashtbl.replace seen_alloc key ();
                mk_finding
                  (Printf.sprintf
                     "[@lint.hot] binding '%s' transitively allocates: %s; \
                      '%s' heap-allocates %s (%s:%d); hoist the allocation \
                      into setup code, mark the callee [@lint.cold] if the \
                      allocation is deliberate, or drop the annotation"
                     root_name (path_str path) v.v_name a.al_what s.s_file
                     a.al_line)
              end
          | None -> ())
      ~on_extern:(fun _s _v path name ->
        match classify_extern name with
        | Safe -> ()
        | Alloc ->
            let key = "a:" ^ name in
            if not (Hashtbl.mem seen_alloc key) then begin
              Hashtbl.replace seen_alloc key ();
              mk_finding
                (Printf.sprintf
                   "[@lint.hot] binding '%s' transitively allocates: %s \
                    calls %s, which heap-allocates; hoist the allocation \
                    into setup code or drop the annotation"
                   root_name (path_str path) name)
            end
        | Stdlib_unknown | Extern_unknown ->
            let key = "n:" ^ name in
            if not (Hashtbl.mem seen_note key) then begin
              Hashtbl.replace seen_note key ();
              mk_note
                (Printf.sprintf
                   "cannot prove [@lint.hot] binding '%s' allocation-free: \
                    unknown callee %s (%s) — a parse-only pass cannot see \
                    its body"
                   root_name name (path_str path))
            end)
      ~on_local:(fun _s v path name ->
        let key = "l:" ^ v.v_name ^ "." ^ name in
        if not (Hashtbl.mem seen_note key) then begin
          Hashtbl.replace seen_note key ();
          mk_note
            (Printf.sprintf
               "cannot prove [@lint.hot] binding '%s' allocation-free: \
                '%s' calls '%s', bound by a parameter or local pattern \
                (%s)"
               root_name v.v_name name (path_str path))
        end)

let d8 graph =
  let findings = ref [] and notes = ref [] in
  List.iter
    (fun (s : Summary.t) ->
      List.iter
        (fun (v : Summary.value) ->
          if v.v_hot && not (sanctioned_cold s v) then
            d8_root findings notes s v graph)
        s.s_values)
    (Callgraph.summaries graph);
  (!findings, !notes)

(* ------------------------------------------------------------------ *)
(* D7: pool-closure race detector *)

let mutable_sanctioned (s : Summary.t) (m : Summary.mutable_binding) =
  Summary.allows_at s ~rule:"D7" ~off:m.m_off
  || Summary.allows_at s ~rule:"D4" ~off:m.m_off

let d7_value_sanctioned (s : Summary.t) (v : Summary.value) =
  is_obs s || Summary.allows_at s ~rule:"D7" ~off:v.v_off

let d7_site graph findings notes (site_sum : Summary.t)
    (p : Summary.pool_site) =
  let mk_finding msg =
    findings :=
      Finding.make_pos ~rule:"D7" ~file:site_sum.s_file ~line:p.p_line
        ~col:p.p_col ~off:p.p_off ~msg
      :: !findings
  in
  let mk_note msg =
    notes :=
      Finding.make_pos ~rule:"D7" ~file:site_sum.s_file ~line:p.p_line
        ~col:p.p_col ~off:p.p_off ~msg
      :: !notes
  in
  let seen = Hashtbl.create 8 in
  let report_touch path (via : string) (s' : Summary.t)
      (m : Summary.mutable_binding) =
    if not (mutable_sanctioned s' m) then begin
      let key = "m:" ^ s'.s_file ^ ":" ^ m.m_name in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.replace seen key ();
        mk_finding
          (Printf.sprintf
             "closure passed to %s transitively touches module-level \
              mutable state '%s.%s' (%s created at %s:%d) via %s — a data \
              race across worker domains; use Atomic/Domain.DLS, pass the \
              state explicitly, or sanction deliberate state with \
              [@lint.allow \"D7\"] on the binding"
             p.p_fn s'.s_module m.m_name m.m_creator s'.s_file m.m_line
             (if path = "" then via else path ^ " -> " ^ via))
      end
    end
  in
  let extern_note path name =
    match classify_extern name with
    | Safe | Alloc | Stdlib_unknown -> ()
    | Extern_unknown ->
        let key = "n:" ^ name in
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.replace seen key ();
          mk_note
            (Printf.sprintf
               "cannot prove race-freedom of the closure passed to %s: \
                unknown callee %s (%s)"
               p.p_fn name
               (if path = "" then "called from the closure" else path))
        end
  in
  let local_note v_name name =
    let key = "l:" ^ v_name ^ "." ^ name in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      mk_note
        (Printf.sprintf
           "cannot prove race-freedom of the closure passed to %s: '%s' \
            calls '%s', bound by a parameter or local pattern"
           p.p_fn v_name name)
    end
  in
  (* Direct touches and roots from the closure argument itself. A
     captured name that resolves to nothing and is never applied is a
     local of the enclosing function (data, not code) — silent;
     applied or qualified unresolved names are genuinely unknown. *)
  let roots = ref [] in
  List.iter
    (fun name ->
      match
        Callgraph.resolve graph ~from:site_sum ~top:p.p_top name
      with
      | [] ->
          if List.mem name p.p_calls || String.contains name '.' then
            extern_note "" name
      | targets ->
          List.iter
            (fun t ->
              match t with
              | Callgraph.Mutable (s', m) -> report_touch "" name s' m
              | Callgraph.Value (s', v') ->
                  if not (d7_value_sanctioned s' v') then
                    roots := (s', v', [ display s' v' ]) :: !roots)
            targets)
    p.p_roots;
  List.iter (fun n -> local_note "the closure" n) p.p_local_calls;
  walk graph ~roots:(List.rev !roots)
    ~descend_sanctioned:d7_value_sanctioned
    ~visit:(fun s v path ->
      List.iter
        (fun (via, s', m) -> report_touch (path_str path) via s' m)
        (mutable_touches graph s v))
    ~on_extern:(fun _s _v path name -> extern_note (path_str path) name)
    ~on_local:(fun _s v _path name -> local_note v.v_name name)

let d7 graph =
  let findings = ref [] and notes = ref [] in
  List.iter
    (fun (s : Summary.t) ->
      List.iter
        (fun (p : Summary.pool_site) ->
          if not (Summary.allows_at s ~rule:"D7" ~off:p.p_off) then
            d7_site graph findings notes s p)
        s.s_pool_sites)
    (Callgraph.summaries graph);
  (!findings, !notes)

(* ------------------------------------------------------------------ *)

let check graph =
  let f7, n7 = d7 graph in
  let f8, n8 = d8 graph in
  ( List.sort Finding.order (f7 @ f8),
    List.sort Finding.order (n7 @ n8) )
