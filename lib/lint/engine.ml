open Parsetree

(* ------------------------------------------------------------------ *)
(* Scoping *)

(* [in_kernel]: the analysis libraries (lib/rtsched, lib/hydra), where
   every time is an int. *)
type scope = {
  in_lib : bool;
  in_obs : bool;
  in_server : bool;
  in_kernel : bool;
}

let scope_of_file file =
  let rec go = function
    | "lib" :: rest ->
        { in_lib = true;
          in_obs = (match rest with "obs" :: _ -> true | _ -> false);
          in_server = (match rest with "server" :: _ -> true | _ -> false);
          in_kernel =
            (match rest with ("rtsched" | "hydra") :: _ -> true | _ -> false) }
    | _ :: rest -> go rest
    | [] ->
        { in_lib = false; in_obs = false; in_server = false; in_kernel = false }
  in
  go (String.split_on_char '/' file)

(* ------------------------------------------------------------------ *)
(* Small Parsetree helpers *)

(* Head of a (possibly partial) application chain: the [List.sort] in
   [List.sort cmp] or [x |> List.sort cmp]. *)
let rec head_ident e =
  match e.pexp_desc with
  | Pexp_apply (f, _) -> head_ident f
  | _ -> Summary.flatten_ident e

(* [exists_in_expr pred e]: does any subexpression of [e] satisfy
   [pred]? Only expressions are inspected (not patterns or types). *)
let exists_in_expr pred e =
  let found = ref false in
  let it =
    { Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          if not !found then
            if pred e then found := true
            else Ast_iterator.default_iterator.expr it e) }
  in
  it.expr it e;
  !found

(* ------------------------------------------------------------------ *)
(* Per-rule matchers *)

(* D1: ambient wall-clock / entropy. [Random.State.*] (explicit-state)
   is fine; the two-segment global-state [Random.*] functions are not. *)
let d1_hit = function
  | [ "Unix"; "gettimeofday" ] -> Some "Unix.gettimeofday"
  | [ "Unix"; "time" ] -> Some "Unix.time"
  | [ "Sys"; "time" ] -> Some "Sys.time"
  | [ "Random"; f ]
    when f <> "" && Char.lowercase_ascii f.[0] = f.[0] ->
      Some ("Random." ^ f)
  | _ -> None

(* D2: stdout from library code. *)
let d2_hit = function
  | [ f ] when String.starts_with ~prefix:"print_" f -> Some f
  | [ "Stdlib"; f ] when String.starts_with ~prefix:"print_" f ->
      Some ("Stdlib." ^ f)
  | [ "Printf"; "printf" ] -> Some "Printf.printf"
  | [ "Format"; "printf" ] -> Some "Format.printf"
  | [ "Format"; f ] when String.starts_with ~prefix:"print_" f ->
      Some ("Format." ^ f)
  | [ "Format"; "std_formatter" ] -> Some "Format.std_formatter"
  | [ "stdout" ] | [ "Stdlib"; "stdout" ] -> Some "stdout"
  | _ -> None

(* D2 (server tightening): raw stderr from daemon code. Structured
   logging goes through [Hydra_obs.Log] — whose identifiers are
   three-segment ([Hydra_obs.Log.log]) and so never match here. *)
let d2_stderr_hit = function
  | [ f ] when String.starts_with ~prefix:"prerr_" f -> Some f
  | [ "Stdlib"; f ] when String.starts_with ~prefix:"prerr_" f ->
      Some ("Stdlib." ^ f)
  | [ "Printf"; "eprintf" ] -> Some "Printf.eprintf"
  | [ "Format"; "eprintf" ] -> Some "Format.eprintf"
  | [ "Format"; "err_formatter" ] -> Some "Format.err_formatter"
  | [ "stderr" ] | [ "Stdlib"; "stderr" ] -> Some "stderr"
  | _ -> None

(* D9: Stdlib's polymorphic min/max, applied or passed as a value. *)
let d9_hit = function
  | [ ("min" | "max") as f ] -> Some (f, f)
  | [ "Stdlib"; (("min" | "max") as f) ] -> Some ("Stdlib." ^ f, f)
  | _ -> None

(* D3: does this expression build an order-sensitive value — a list
   (cons/append), a string (concat), or a buffer? *)
let accumulates e =
  exists_in_expr
    (fun e ->
      match e.pexp_desc with
      | Pexp_construct ({ txt = Longident.Lident "::"; _ }, _) -> true
      | Pexp_ident _ -> (
          match Summary.flatten_ident e with
          | Some ([ "@" ] | [ "^" ] | [ "List"; "cons" ]) -> true
          | Some [ "Buffer"; f ] -> String.starts_with ~prefix:"add" f
          | _ -> false)
      | _ -> false)
    e

let is_sort = function
  | [ "List"; ("sort" | "sort_uniq" | "stable_sort" | "fast_sort") ]
  | [ "Array"; ("sort" | "stable_sort" | "fast_sort") ] ->
      true
  | _ -> false

let is_hot_attr (attr : attribute) = attr.attr_name.txt = "lint.hot"

(* D5: syntactic evidence that an operand is a float. *)
let float_evidence e =
  exists_in_expr
    (fun e ->
      match e.pexp_desc with
      | Pexp_constant (Pconst_float _) -> true
      | Pexp_ident _ -> (
          match Summary.flatten_ident e with
          | Some [ ("+." | "-." | "*." | "/." | "**") ] -> true
          | Some [ "float_of_int" ] -> true
          | Some ("Float" :: _) -> true
          | _ -> false)
      | _ -> false)
    e

(* ------------------------------------------------------------------ *)
(* The pass *)

type ctx = {
  file : string;
  scope : scope;
  mutable findings : Finding.t list;
  (* > 0 while inside an expression chain that sorts its result *)
  mutable sorted_depth : int;
}

let run_pass ctx ast =
  let add rule (loc : Location.t) msg =
    ctx.findings <- Finding.make ~rule ~file:ctx.file ~loc ~msg :: ctx.findings
  in
  let check_ident e =
    match Summary.flatten_ident e with
    | None -> ()
    | Some parts ->
        (if not ctx.scope.in_obs then
           match d1_hit parts with
           | Some name ->
               add "D1" e.pexp_loc
                 (Printf.sprintf
                    "%s reads ambient wall-clock/entropy state; results must \
                     be reproducible from the seed alone — use \
                     Hydra_obs.now_ns for timing or Taskgen.Rng for \
                     randomness"
                    name)
           | None -> ());
        (if ctx.scope.in_lib then
           match d2_hit parts with
           | Some name ->
               add "D2" e.pexp_loc
                 (Printf.sprintf
                    "%s writes to stdout from library code; results must flow \
                     through a formatter argument or a returned value so \
                     stdout stays byte-identical across --jobs"
                    name)
           | None -> ());
        (if ctx.scope.in_server then
           match d2_stderr_hit parts with
           | Some name ->
               add "D2" e.pexp_loc
                 (Printf.sprintf
                    "%s writes raw stderr from daemon code; a long-running \
                     server must log through the rate-limited Hydra_obs.Log \
                     so operator output stays throttled and structured"
                    name)
           | None -> ());
        if ctx.scope.in_kernel then
          match d9_hit parts with
          | Some (name, f) ->
              add "D9" e.pexp_loc
                (Printf.sprintf
                   "%s is Stdlib's polymorphic %s: each use calls into Stdlib, \
                    whose generic compare runs through caml_c_call; times \
                    here are ints, so use Int.%s, which compiles to one \
                    compare"
                   name f f)
          | None -> ()
  in
  (* D6 reports every allocation site in the body of a [@lint.hot]
     binding; its parameters are the function being defined, not
     captures. *)
  let scan_hot vbs =
    List.iter
      (fun vb ->
        if List.exists is_hot_attr vb.pvb_attributes then
          List.iter
            (fun (what, loc) ->
              add "D6" loc
                (Printf.sprintf
                   "[@lint.hot] promises an allocation-free path, but this \
                    expression heap-allocates (%s); hoist the allocation \
                    into setup code or drop the annotation"
                   what))
            (Summary.allocs (Summary.peel_params vb.pvb_expr)))
      vbs
  in
  let expr_h it e =
    check_ident e;
    (match e.pexp_desc with
    | Pexp_let (_, vbs, _) -> scan_hot vbs
    | _ -> ());
    match e.pexp_desc with
    | Pexp_apply (fn, args) ->
        let fnp = Summary.flatten_ident fn in
        (match fnp with
        | Some [ "Hashtbl"; (("fold" | "iter") as which) ]
          when ctx.sorted_depth = 0 ->
            if List.exists (fun (_, a) -> accumulates a) args then
              add "D3" e.pexp_loc
                (Printf.sprintf
                   "Hashtbl.%s builds an order-sensitive value in \
                    unspecified hash-bucket order; sort the result in the \
                    same expression chain, or mark a commutative fold with \
                    [@lint.allow \"D3\"]"
                   which)
        | _ -> ());
        (match fnp with
        | Some ([ "compare" ] | [ "Stdlib"; "compare" ] | [ "=" ] | [ "<>" ])
          ->
            if List.exists (fun (_, a) -> float_evidence a) args then
              add "D5" e.pexp_loc
                "polymorphic compare/(=) on float operands is order-fragile \
                 around NaN; use Float.compare / Float.equal"
        | _ -> ());
        let sorted_here =
          (match fnp with Some p -> is_sort p | None -> false)
          ||
          match fnp with
          | Some ([ "|>" ] | [ "@@" ]) ->
              List.exists
                (fun (_, a) ->
                  match head_ident a with
                  | Some p -> is_sort p
                  | None -> false)
                args
          | _ -> false
        in
        if sorted_here then begin
          ctx.sorted_depth <- ctx.sorted_depth + 1;
          Ast_iterator.default_iterator.expr it e;
          ctx.sorted_depth <- ctx.sorted_depth - 1
        end
        else Ast_iterator.default_iterator.expr it e
    | _ -> Ast_iterator.default_iterator.expr it e
  in
  (* D4 looks only at code that runs at module initialisation. *)
  let structure_item_h it si =
    (match si.pstr_desc with
    | Pstr_value (_, vbs) ->
        scan_hot vbs;
        if ctx.scope.in_lib then
          List.iter
            (fun vb ->
              List.iter
                (fun (name, loc) ->
                  add "D4" loc
                    (Printf.sprintf
                       "module-level %s is mutable state shared by every \
                        domain under Parallel.Pool; use Atomic, Domain.DLS, \
                        or pass the state explicitly"
                       name))
                (Summary.creators vb.pvb_expr))
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

type analysis = { findings : Finding.t list; summary : Summary.t }

let analyze ~file source =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf file;
  match Parse.implementation lexbuf with
  | exception exn ->
      let msg =
        match Location.error_of_exn exn with
        | Some (`Ok report) ->
            Format.asprintf "%a" Location.print_report report
        | Some `Already_displayed | None -> Printexc.to_string exn
      in
      Error msg
  | ast ->
      let summary = Summary.of_structure ~file ast in
      let ctx =
        { file; scope = scope_of_file file; findings = []; sorted_depth = 0 }
      in
      run_pass ctx ast;
      let findings =
        ctx.findings
        |> List.filter (fun (f : Finding.t) ->
               not (Summary.allows_at summary ~rule:f.rule ~off:f.off))
        |> List.sort Finding.order
      in
      Ok { findings; summary }

let lint_source ~file source =
  Result.map (fun a -> a.findings) (analyze ~file source)
