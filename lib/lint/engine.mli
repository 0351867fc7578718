(** The determinism & domain-safety pass: parse one [.ml] source with
    compiler-libs, build its {!Summary.t}, and walk the Parsetree with
    an [Ast_iterator], checking rules D1–D6 and D9 (see {!Rules.all} and
    doc/STATIC_ANALYSIS.md). D4 and D6 report every site of the
    summary's scans ({!Summary.creators}, {!Summary.allocs}).

    Scoping is derived from [file]'s [/]-separated segments: a path
    containing a [lib] segment is library-scoped (enables D2/D4),
    [lib/obs/...] is exempt from D1 (it is the sanctioned clock), and
    under [lib/server/...] D2 additionally rejects raw stderr writes
    (the daemon must log through [Hydra_obs.Log]); D9 (Stdlib's
    polymorphic [min]/[max]) applies under [lib/rtsched/...] and
    [lib/hydra/...] only, where every time is an [int].

    Suppression understood here, through the summary's allow ranges
    ({!Summary.allows_at}; the checked-in allowlist is applied later,
    by {!Driver.run}):
    - [(expr [@lint.allow "D3"])] — that expression and its subtree;
    - [let x = ... [@@lint.allow "D4"]] — that binding;
    - [[@@@lint.allow "D1 D5"]] — the whole file.
    Several rule ids may be given in one string, separated by spaces
    or commas; ["*"] means every rule. *)

(** Intraprocedural findings (rules D1–D6 and D9) plus the {!Summary.t}
    phase 2 links into the whole-program call graph. *)
type analysis = { findings : Finding.t list; summary : Summary.t }

(** Parse and analyze one file in a single pass. Findings are sorted
    by position and already filtered by inline [[@lint.allow]]
    attributes. [Error] is a rendered parse error. *)
val analyze : file:string -> string -> (analysis, string) result

(** {!analyze}, keeping only the findings. *)
val lint_source : file:string -> string -> (Finding.t list, string) result
