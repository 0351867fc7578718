(* Tests for the Lint static-analysis pass (doc/STATIC_ANALYSIS.md):
   one seeded fixture per rule D1-D6 and D9 under lint_fixtures/, asserted
   through the JSON report; scoping (lib-only rules, the lib/obs clock
   exemption); suppression via [@lint.allow] attributes and the
   allowlist; and the clean-tree gate over the repo's own lib/. *)

open Test_util

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_findings = Alcotest.(check (list (pair string int)))

let lint_str ~file source =
  match Lint.Engine.lint_source ~file source with
  | Ok fs -> fs
  | Error m -> Alcotest.fail m

(* A Driver.result wrapping bare findings, for report-format tests. *)
let mk_result findings =
  { Lint.Driver.findings;
    notes = [];
    errors = [];
    warnings = [];
    files_scanned = 1 }

let fixture_source name =
  In_channel.with_open_bin
    (Filename.concat "lint_fixtures" name)
    In_channel.input_all

(* Lint a fixture under a pretend lib/ path and report the (rule, line)
   pairs as seen through the JSON report — the same bytes CI uploads. *)
let fixture_findings name =
  let findings = lint_str ~file:("lib/" ^ name) (fixture_source name) in
  let j = parse_json (Lint.Driver.report_json (mk_result findings)) in
  check_int "count field" (List.length findings)
    (int_of_float (as_num (member "count" j)));
  member "findings" j |> as_list
  |> List.map (fun f ->
         ( as_str (member "rule" f),
           int_of_float (as_num (member "line" f)) ))

(* ------------------------------------------------------------------ *)
(* One seeded fixture per rule *)

let test_d1 () =
  check_findings "d1" [ ("D1", 4); ("D1", 7); ("D1", 8) ]
    (fixture_findings "d1_wallclock.ml")

let test_d2 () =
  check_findings "d2" [ ("D2", 4); ("D2", 6) ]
    (fixture_findings "d2_stdout.ml")

(* The same fixture is stderr-clean outside lib/server and dirty
   inside it: D2's stderr tightening is server-scoped. *)
let test_d2_stderr () =
  let lines file =
    List.map
      (fun (f : Lint.Finding.t) -> (f.rule, f.line))
      (lint_str ~file (fixture_source "d2_stderr.ml"))
  in
  check_findings "in lib/server" [ ("D2", 5); ("D2", 7); ("D2", 9) ]
    (lines "lib/server/d2_stderr.ml");
  check_findings "outside lib/server" [] (lines "lib/hydra/d2_stderr.ml");
  check_findings "in bin" [] (lines "bin/d2_stderr.ml")

let test_d3 () =
  check_findings "d3" [ ("D3", 4); ("D3", 6) ]
    (fixture_findings "d3_hash_order.ml")

let test_d4 () =
  check_findings "d4" [ ("D4", 4); ("D4", 6) ]
    (fixture_findings "d4_global_state.ml")

let test_d5 () =
  check_findings "d5" [ ("D5", 4); ("D5", 6) ]
    (fixture_findings "d5_float_compare.ml")

let test_d6 () =
  check_findings "d6"
    [ ("D6", 4); ("D6", 6); ("D6", 8); ("D6", 15); ("D6", 22) ]
    (fixture_findings "d6_hot_alloc.ml")

let test_d6_suppression () =
  (* binding-level [@lint.allow] silences D6 like any other rule *)
  check_int "allowed hot alloc" 0
    (List.length
       (lint_str ~file:"lib/x.ml"
          "let[@lint.hot] f x = Some x [@@lint.allow \"D6\"]"));
  (* parameters of the hot function itself are not closures *)
  check_int "parameters are free" 0
    (List.length
       (lint_str ~file:"lib/x.ml" "let[@lint.hot] f x y = x land y"));
  (* constant constructors do not allocate *)
  check_int "constant constructor" 0
    (List.length
       (lint_str ~file:"lib/x.ml" "let[@lint.hot] f () = None"))

(* D9 is scoped to the integer analysis: the same fixture is dirty in
   lib/rtsched and lib/hydra and clean everywhere else. *)
let test_d9 () =
  let lines file =
    List.map
      (fun (f : Lint.Finding.t) -> (f.rule, f.line))
      (lint_str ~file (fixture_source "d9_poly_minmax.ml"))
  in
  let dirty = [ ("D9", 6); ("D9", 8); ("D9", 10); ("D9", 12) ] in
  check_findings "in lib/rtsched" dirty
    (lines "lib/rtsched/d9_poly_minmax.ml");
  check_findings "in lib/hydra" dirty (lines "lib/hydra/d9_poly_minmax.ml");
  check_findings "in lib/sim" [] (lines "lib/sim/d9_poly_minmax.ml");
  check_findings "in bin" [] (lines "bin/d9_poly_minmax.ml")

let test_clean_fixture () =
  check_findings "clean fixture" [] (fixture_findings "clean.ml")

(* ------------------------------------------------------------------ *)
(* Positions and report formats *)

let test_positions () =
  match lint_str ~file:"lib/d1_wallclock.ml" (fixture_source "d1_wallclock.ml")
  with
  | first :: _ ->
      check_int "line" 4 first.Lint.Finding.line;
      (* let elapsed () = Unix.gettimeofday () — ident starts at col 17 *)
      check_int "col" 17 first.Lint.Finding.col;
      Alcotest.(check string)
        "text line"
        (Printf.sprintf "lib/d1_wallclock.ml:4:17 [D1] %s"
           first.Lint.Finding.msg)
        (Format.asprintf "%a" Lint.Finding.pp first)
  | [] -> Alcotest.fail "expected a D1 finding"

let test_json_fields () =
  let findings = lint_str ~file:"lib/x.ml" "let t () = Sys.time ()" in
  let j = parse_json (Lint.Driver.report_json (mk_result findings)) in
  check_int "version" 2 (int_of_float (as_num (member "version" j)));
  check_int "files_scanned" 1
    (int_of_float (as_num (member "files_scanned" j)));
  match member "findings" j |> as_list with
  | [ f ] ->
      Alcotest.(check string) "rule" "D1" (as_str (member "rule" f));
      Alcotest.(check string) "file" "lib/x.ml" (as_str (member "file" f));
      check_int "line" 1 (int_of_float (as_num (member "line" f)));
      check_int "col" 11 (int_of_float (as_num (member "col" f)));
      check_bool "message mentions Sys.time" true
        (String.length (as_str (member "message" f)) > 0)
  | _ -> Alcotest.fail "expected exactly one finding"

(* ------------------------------------------------------------------ *)
(* Scoping *)

let test_scoping () =
  (* D2 and D4 are library-only: executables own their stdout. *)
  check_int "stdout fine in bin" 0
    (List.length (lint_str ~file:"bin/tool.ml" "let main () = print_endline \"ok\""));
  check_int "toplevel ref fine in bin" 0
    (List.length (lint_str ~file:"bin/tool.ml" "let verbose = ref false"));
  (* lib/obs is the sanctioned clock: exempt from D1. *)
  check_int "clock fine in lib/obs" 0
    (List.length (lint_str ~file:"lib/obs/clock.ml" "let t () = Sys.time ()"));
  check_int "clock flagged in lib" 1
    (List.length (lint_str ~file:"lib/hydra/x.ml" "let t () = Sys.time ()"))

(* ------------------------------------------------------------------ *)
(* Suppression *)

let test_inline_suppression () =
  (* file-wide floating attribute *)
  check_int "floating attribute" 0
    (List.length
       (lint_str ~file:"lib/x.ml"
          "[@@@lint.allow \"D1\"]\nlet t () = Sys.time ()"));
  (* binding-level attribute *)
  check_int "binding attribute" 0
    (List.length
       (lint_str ~file:"lib/x.ml"
          "let h = Hashtbl.create 3 [@@lint.allow \"D4\"]"));
  (* a different rule id does not suppress *)
  check_int "wrong rule id" 1
    (List.length
       (lint_str ~file:"lib/x.ml"
          "let h = Hashtbl.create 3 [@@lint.allow \"D3\"]"));
  (* "*" suppresses everything *)
  check_int "star" 0
    (List.length
       (lint_str ~file:"lib/x.ml"
          "let h = Hashtbl.create 3 [@@lint.allow \"*\"]"))

let entry_exn line =
  match Lint.Allowlist.parse_line line with
  | Ok (Some e) -> e
  | Ok None -> Alcotest.failf "no entry parsed from %S" line
  | Error m -> Alcotest.fail m

let test_allowlist () =
  (match Lint.Allowlist.parse_line "  # comment " with
  | Ok None -> ()
  | _ -> Alcotest.fail "comment should parse to nothing");
  (match Lint.Allowlist.parse_line "bogus" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed line should be rejected");
  let f =
    match lint_str ~file:"lib/foo.ml" "let t () = Sys.time ()" with
    | [ f ] -> f
    | _ -> Alcotest.fail "expected one finding"
  in
  let permits line = Lint.Allowlist.permits [ entry_exn line ] f in
  check_bool "whole file" true (permits "D1 lib/foo.ml");
  check_bool "exact line" true (permits "D1 lib/foo.ml:1");
  check_bool "wrong line" false (permits "D1 lib/foo.ml:2");
  check_bool "wrong rule" false (permits "D2 lib/foo.ml");
  check_bool "star rule" true (permits "* lib/foo.ml");
  check_bool "suffix path" true
    (Lint.Allowlist.permits
       [ entry_exn "D1 lib/foo.ml" ]
       { f with Lint.Finding.file = "../lib/foo.ml" })

let test_parse_error () =
  match Lint.Engine.lint_source ~file:"lib/broken.ml" "let = in" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected a parse error"

(* ------------------------------------------------------------------ *)
(* Interprocedural rules D7/D8 over the fixture call graph
   (lint_fixtures/interproc/): a racy closure two calls deep, an
   allocation three calls deep under [@lint.hot], a sanctioned Atomic
   path, cross-module [@lint.allow] suppression, a [@lint.cold]
   sanctioned allocation point, and an unknown callee that must
   surface as a "cannot prove" note. *)

let interproc = "lint_fixtures/interproc"

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let check_contains what hay needle =
  check_bool (Printf.sprintf "%s contains %S" what needle) true
    (contains hay needle)

let rule_sites fs =
  List.map
    (fun f ->
      ( f.Lint.Finding.rule,
        Filename.basename f.Lint.Finding.file,
        f.Lint.Finding.line ))
    fs

let check_sites = Alcotest.(check (list (triple string string int)))

let test_interproc_findings () =
  let r = Lint.Driver.run [ interproc ] in
  check_int "no errors" 0 (List.length r.Lint.Driver.errors);
  check_int "all fixtures scanned" 8 r.files_scanned;
  (* Exactly the seeded violations: nothing from the Atomic path, the
     allow-sanctioned state, or the [@lint.cold] callee. *)
  check_sites "findings"
    [ ("D8", "ip_hot.ml", 5); ("D7", "ip_pool.ml", 2) ]
    (rule_sites r.findings);
  check_sites "notes"
    [ ("D8", "ip_unknown.ml", 3) ]
    (rule_sites r.notes)

let test_interproc_messages () =
  let r = Lint.Driver.run [ interproc ] in
  let msg rule l =
    match List.find_opt (fun f -> f.Lint.Finding.rule = rule) l with
    | Some f -> f.Lint.Finding.msg
    | None -> Alcotest.failf "no %s reported" rule
  in
  let d7 = msg "D7" r.findings in
  check_contains "D7" d7 "Ip_state.hits";
  check_contains "D7 call path" d7 "Ip_mid.middle -> Ip_state.bump";
  let d8 = msg "D8" r.findings in
  check_contains "D8 call path" d8
    "Ip_hot.entry -> Ip_hot.l1 -> Ip_hot.l2 -> Ip_hot.l3";
  check_contains "D8 allocation kind" d8 "a tuple";
  let n = msg "D8" r.notes in
  check_contains "note" n "cannot prove";
  check_contains "note callee" n "Ext_mystery.transform"

(* A parameter shadows a top-level value of the same name
   (lint_fixtures/shadow/): [run ~omega] calls its argument, so both
   files get the same "bound by a parameter" note and neither gets a
   D8 finding through the top-level [omega]. *)
let test_parameter_shadows_value () =
  let r = Lint.Driver.run [ "lint_fixtures/shadow" ] in
  check_int "no errors" 0 (List.length r.Lint.Driver.errors);
  check_sites "no findings" [] (rule_sites r.findings);
  check_sites "notes"
    [ ("D8", "shadow.ml", 5); ("D8", "shadow_renamed.ml", 3) ]
    (rule_sites r.notes);
  List.iter
    (fun n ->
      check_contains "note" n.Lint.Finding.msg
        "'run' calls 'omega', bound by a parameter")
    r.notes

(* Values of a module nested in a file (lint_fixtures/nested/):
   [Nm_outer.Inner.twice] and [Nm_outer.Counter.bump] name no file
   module, and resolve through file [Nm_outer]. So D8 proves one hot
   caller and finds the other's allocation, D7 finds the race, and
   nothing is left as an unknown callee. *)
let test_nested_module_values () =
  let r = Lint.Driver.run [ "lint_fixtures/nested" ] in
  check_int "no errors" 0 (List.length r.Lint.Driver.errors);
  check_sites "findings"
    [ ("D8", "nm_callers.ml", 5); ("D7", "nm_callers.ml", 6) ]
    (rule_sites r.findings);
  check_sites "no notes" [] (rule_sites r.notes);
  let msg rule =
    match List.find_opt (fun f -> f.Lint.Finding.rule = rule) r.findings with
    | Some f -> f.Lint.Finding.msg
    | None -> Alcotest.failf "no %s reported" rule
  in
  check_contains "D8 allocation kind" (msg "D8") "a tuple";
  check_contains "D7 state" (msg "D7") "Nm_outer.hits"

(* ------------------------------------------------------------------ *)
(* Path arguments *)

let temp_dir () =
  let d = Filename.temp_file "lint_test" "" in
  Sys.remove d;
  Sys.mkdir d 0o700;
  d

let test_warnings () =
  let dir = temp_dir () in
  let r = Lint.Driver.run [ dir; Filename.concat dir "nope" ] in
  match r.Lint.Driver.warnings with
  | [ empty; missing ] ->
      check_contains "empty dir" empty "no .ml files";
      check_contains "missing path" missing "does not exist"
  | ws -> Alcotest.failf "expected 2 warnings, got %d" (List.length ws)

(* ------------------------------------------------------------------ *)
(* SARIF export *)

let test_sarif () =
  let r = Lint.Driver.run [ interproc ] in
  let j = parse_json (Lint.Driver.report_sarif r) in
  Alcotest.(check string) "version" "2.1.0" (as_str (member "version" j));
  let run0 =
    match member "runs" j |> as_list with
    | [ x ] -> x
    | _ -> Alcotest.fail "expected one run"
  in
  let driver = member "tool" run0 |> member "driver" in
  Alcotest.(check string) "tool name" "hydra_lint"
    (as_str (member "name" driver));
  check_int "rule catalog exported" (List.length Lint.Rules.all)
    (List.length (member "rules" driver |> as_list));
  let results = member "results" run0 |> as_list in
  check_int "findings + notes" (List.length r.findings + List.length r.notes)
    (List.length results);
  let levels = List.map (fun x -> as_str (member "level" x)) results in
  Alcotest.(check (list string)) "levels" [ "error"; "error"; "note" ] levels;
  match (results, r.findings) with
  | res :: _, f :: _ ->
      Alcotest.(check string) "ruleId" f.Lint.Finding.rule
        (as_str (member "ruleId" res));
      let region =
        List.nth (member "locations" res |> as_list) 0
        |> member "physicalLocation"
      in
      Alcotest.(check string) "uri" f.Lint.Finding.file
        (region |> member "artifactLocation" |> member "uri" |> as_str);
      check_int "startLine" f.Lint.Finding.line
        (int_of_float
           (region |> member "region" |> member "startLine" |> as_num));
      check_int "startColumn is 1-based" (f.Lint.Finding.col + 1)
        (int_of_float
           (region |> member "region" |> member "startColumn" |> as_num))
  | _ -> Alcotest.fail "expected results"

(* ------------------------------------------------------------------ *)
(* The clean-tree gate: the repo's own lib/ has zero findings even
   without the checked-in allowlist (inline attributes suffice). *)

let test_clean_tree () =
  let r = Lint.Driver.run [ "../lib" ] in
  check_int "no read/parse errors" 0 (List.length r.Lint.Driver.errors);
  check_bool "scanned the whole library tree" true (r.files_scanned >= 40);
  (* Notes are expected (hook calls through parameters are honestly
     unprovable) but must all be D7/D8 cannot-prove diagnostics. *)
  List.iter
    (fun n ->
      check_bool "note rule" true
        (n.Lint.Finding.rule = "D7" || n.Lint.Finding.rule = "D8");
      check_contains "note wording" n.Lint.Finding.msg "cannot prove")
    r.notes;
  match r.findings with
  | [] -> ()
  | f :: _ ->
      Alcotest.failf "lib/ must lint clean, got: %s"
        (Format.asprintf "%a" Lint.Finding.pp f)

(* The acceptance bar for D8 on the real tree: every [@lint.hot]
   binding in the fast engine and the calendar is either proven
   allocation-free or appears in the notes with its unprovable callee
   named. Calendar must prove outright (its cone is arithmetic and
   array reads only). *)
let test_hot_bindings_accounted () =
  let r = Lint.Driver.run [ "../lib/sim" ] in
  check_sites "no D8 findings in lib/sim" []
    (rule_sites (List.filter (fun f -> f.Lint.Finding.rule = "D8") r.findings));
  check_bool "calendar proves allocation-free" true
    (not
       (List.exists
          (fun n -> Filename.basename n.Lint.Finding.file = "calendar.ml")
          r.notes));
  (* The engine's hook dispatches are the honest unprovables. *)
  check_bool "engine hook calls surface as notes" true
    (List.exists
       (fun n ->
         n.Lint.Finding.rule = "D8"
         && Filename.basename n.Lint.Finding.file = "engine.ml"
         && contains n.Lint.Finding.msg "bound by a parameter")
       r.notes)

let () =
  Alcotest.run "lint"
    [ ( "rules",
        [ Alcotest.test_case "D1 wall clock" `Quick test_d1;
          Alcotest.test_case "D2 stdout" `Quick test_d2;
          Alcotest.test_case "D2 stderr in server" `Quick test_d2_stderr;
          Alcotest.test_case "D3 hash order" `Quick test_d3;
          Alcotest.test_case "D4 global state" `Quick test_d4;
          Alcotest.test_case "D5 float compare" `Quick test_d5;
          Alcotest.test_case "D6 hot alloc" `Quick test_d6;
          Alcotest.test_case "D6 suppression" `Quick test_d6_suppression;
          Alcotest.test_case "D9 polymorphic min/max" `Quick test_d9;
          Alcotest.test_case "clean fixture" `Quick test_clean_fixture ] );
      ( "report",
        [ Alcotest.test_case "positions" `Quick test_positions;
          Alcotest.test_case "json fields" `Quick test_json_fields ] );
      ( "scoping", [ Alcotest.test_case "path scopes" `Quick test_scoping ] );
      ( "suppression",
        [ Alcotest.test_case "inline attributes" `Quick
            test_inline_suppression;
          Alcotest.test_case "allowlist" `Quick test_allowlist;
          Alcotest.test_case "parse error" `Quick test_parse_error ] );
      ( "interproc",
        [ Alcotest.test_case "D7/D8 fixture findings" `Quick
            test_interproc_findings;
          Alcotest.test_case "finding messages" `Quick
            test_interproc_messages;
          Alcotest.test_case "parameter shadows a value" `Quick
            test_parameter_shadows_value;
          Alcotest.test_case "nested module values" `Quick
            test_nested_module_values ] );
      ( "determinism",
        [ Alcotest.test_case "path warnings" `Quick test_warnings ] );
      ( "sarif", [ Alcotest.test_case "sarif export" `Quick test_sarif ] );
      ( "tree",
        [ Alcotest.test_case "lib/ lints clean" `Quick test_clean_tree;
          Alcotest.test_case "hot bindings accounted" `Quick
            test_hot_bindings_accounted ] ) ]
