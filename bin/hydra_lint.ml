(* hydra_lint: the determinism & domain-safety static-analysis gate
   (doc/STATIC_ANALYSIS.md). Parses every .ml under the given paths
   with compiler-libs, checks the intraprocedural rules D1-D6 and D9, then
   links per-module summaries into a whole-program call graph for the
   interprocedural rules D7 (pool-closure races) and D8 (transitive
   hot-path allocation). Exit 0 = clean, 1 = findings, 2 =
   read/parse/usage errors; "cannot prove" notes and warnings never
   affect the exit code. Wired as [dune build @lint] by the root dune
   file. *)

let usage =
  "hydra_lint [--format text|json|sarif] [--allowlist FILE] [--list-rules]\n\
  \           [PATH...]\n\
   Lint .ml sources for determinism and domain-safety (rules D1-D9).\n\
   PATH defaults to: lib bin test/oracle test/drive"

let () =
  let format = ref "text" in
  let allowlist_file = ref None in
  let list_rules = ref false in
  let paths = ref [] in
  let spec =
    [ ( "--format",
        Arg.Symbol ([ "text"; "json"; "sarif" ], fun s -> format := s),
        " report format on stdout (default text)" );
      ( "--allowlist",
        Arg.String (fun s -> allowlist_file := Some s),
        "FILE checked-in suppression file (RULE PATH[:LINE] per line)" );
      ( "--list-rules",
        Arg.Set list_rules,
        " print the rule catalog and exit" ) ]
  in
  Arg.parse (Arg.align spec) (fun p -> paths := p :: !paths) usage;
  if !list_rules then begin
    Lint.Rules.pp_catalog Format.std_formatter ();
    exit 0
  end;
  let paths =
    match List.rev !paths with
    | [] -> [ "lib"; "bin"; "test/oracle"; "test/drive" ]
    | ps -> ps
  in
  let allowlist =
    match !allowlist_file with
    | None -> Lint.Allowlist.empty
    | Some file -> (
        match Lint.Allowlist.load file with
        | Ok t -> t
        | Error m ->
            Printf.eprintf "hydra_lint: bad allowlist: %s\n" m;
            exit 2)
  in
  let result = Lint.Driver.run ~allowlist paths in
  let report =
    match !format with
    | "json" -> Lint.Driver.report_json result
    | "sarif" -> Lint.Driver.report_sarif result
    | _ -> Lint.Driver.report_text result
  in
  print_string report;
  List.iter (Printf.eprintf "hydra_lint: %s\n") result.warnings;
  List.iter (Printf.eprintf "hydra_lint: error: %s\n") result.errors;
  Printf.eprintf "hydra_lint: scanned %d file(s), %d finding(s), %d note(s)\n"
    result.files_scanned
    (List.length result.findings)
    (List.length result.notes);
  if result.errors <> [] then exit 2
  else if result.findings <> [] then exit 1
