module J = Obs_json

type dist = { d_count : int; d_sum : int; d_min : int; d_max : int }

type hist = {
  h_count : int;
  h_sum : int;
  h_min : int;
  h_max : int;
  h_buckets : (int * int) list;
}

type snapshot = {
  counters : (string * int) list;
  dists : (string * dist) list;
  hists : (string * hist) list;
  spans : (string * int) list;
}

let schema = "hydra_c.metrics/1"

let sort_assoc l = List.sort (fun (a, _) (b, _) -> String.compare a b) l

(* ------------------------------------------------------------------ *)
(* Loading *)

let dist_of_json j =
  { d_count = J.get_int "count" j; d_sum = J.get_int "sum" j;
    d_min = J.get_int "min" j; d_max = J.get_int "max" j }

let buckets_of_json j =
  match J.get "buckets" j with
  | J.Arr items ->
      List.map
        (fun it -> (J.get_int "le" it, J.get_int "count" it))
        items
  | _ -> raise (J.Error "\"buckets\" is not an array")

let hist_of_json j =
  { h_count = J.get_int "count" j; h_sum = J.get_int "sum" j;
    h_min = J.get_int "min" j; h_max = J.get_int "max" j;
    h_buckets = buckets_of_json j }

let of_json j =
  { counters =
      sort_assoc
        (List.map
           (fun (k, v) ->
             match J.to_int v with
             | Some i -> (k, i)
             | None -> raise (J.Error ("counter \"" ^ k ^ "\" is not an integer")))
           (J.get_obj "counters" j));
    dists = sort_assoc (List.map (fun (k, v) -> (k, dist_of_json v)) (J.get_obj "dists" j));
    hists = sort_assoc (List.map (fun (k, v) -> (k, hist_of_json v)) (J.get_obj "histograms" j));
    spans =
      sort_assoc
        (List.map (fun (k, v) -> (k, J.get_int "count" v)) (J.get_obj "spans" j)) }

let of_string content =
  let j = J.parse content in
  match J.to_string (J.get "schema" j) with
  | Some s when s = schema -> of_json j
  | Some s -> raise (J.Error ("unknown snapshot schema \"" ^ s ^ "\""))
  | None -> raise (J.Error "\"schema\" is not a string")

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | content -> (
      match of_string content with
      | snap -> Ok snap
      | exception J.Error msg -> Error (path ^ ": " ^ msg))

(* ------------------------------------------------------------------ *)
(* Quantiles from serialized buckets *)

let quantile h q =
  if h.h_count = 0 then 0
  else
    let q = if q < 0. then 0. else if q > 1. then 1. else q in
    let rank = int_of_float (Float.ceil (q *. float_of_int h.h_count)) in
    let rank = if rank < 1 then 1 else rank in
    let rec go acc = function
      | [] -> h.h_max
      | (le, count) :: rest ->
          let acc = acc + count in
          if acc >= rank then min le h.h_max else go acc rest
    in
    go 0 h.h_buckets

(* ------------------------------------------------------------------ *)
(* Flattening and diffing *)

let flatten snap =
  let acc = ref [] in
  let push k v = acc := (k, v) :: !acc in
  List.iter (fun (k, v) -> push k (float_of_int v)) snap.counters;
  List.iter
    (fun (k, d) ->
      push (k ^ ".count") (float_of_int d.d_count);
      if d.d_count > 0 then
        push (k ^ ".mean") (float_of_int d.d_sum /. float_of_int d.d_count))
    snap.dists;
  List.iter
    (fun (k, h) ->
      push (k ^ ".count") (float_of_int h.h_count);
      if h.h_count > 0 then begin
        push (k ^ ".p50") (float_of_int (quantile h 0.50));
        push (k ^ ".p99") (float_of_int (quantile h 0.99));
        push (k ^ ".max") (float_of_int h.h_max)
      end)
    snap.hists;
  List.iter (fun (k, v) -> push (k ^ ".count") (float_of_int v)) snap.spans;
  sort_assoc !acc

type change = {
  key : string;
  before : float option;
  after : float option;
}

let diff a b =
  (* merge two sorted key lists *)
  let rec go xs ys =
    match (xs, ys) with
    | [], [] -> []
    | (k, v) :: xs, [] -> { key = k; before = Some v; after = None } :: go xs []
    | [], (k, v) :: ys -> { key = k; before = None; after = Some v } :: go [] ys
    | (ka, va) :: xs', (kb, vb) :: ys' ->
        let c = String.compare ka kb in
        if c = 0 then
          { key = ka; before = Some va; after = Some vb } :: go xs' ys'
        else if c < 0 then
          { key = ka; before = Some va; after = None } :: go xs' ys
        else { key = kb; before = None; after = Some vb } :: go xs ys'
  in
  go (flatten a) (flatten b)

let pct_change c =
  match (c.before, c.after) with
  | Some b, Some a ->
      if Float.equal b 0. then
        if Float.equal a 0. then Some 0. else Some Float.infinity
      else Some ((a -. b) /. b *. 100.)
  | _ -> None

let regressions ?(watch = fun _ -> true) ~threshold_pct changes =
  List.filter
    (fun c ->
      watch c.key
      &&
      match pct_change c with
      | Some pct -> Float.compare pct threshold_pct > 0
      | None -> false)
    changes

(* ------------------------------------------------------------------ *)
(* Rendering *)

(* Per-tenant SLO metrics as recorded by the admission daemon under
   profiling: [server.tenant.<t>.latency_ns] histograms and
   [server.tenant.<t>.errors] counters. *)
let tenant_prefix = "server.tenant."
let latency_suffix = ".latency_ns"

let slo_offenders ?(k = 5) snap =
  let errors t =
    match List.assoc_opt (tenant_prefix ^ t ^ ".errors") snap.counters with
    | Some n -> n
    | None -> 0
  in
  let scored =
    List.filter_map
      (fun (key, h) ->
        if
          String.starts_with ~prefix:tenant_prefix key
          && String.ends_with ~suffix:latency_suffix key
        then begin
          let t =
            String.sub key
              (String.length tenant_prefix)
              (String.length key - String.length tenant_prefix
              - String.length latency_suffix)
          in
          Some (t, h, errors t)
        end
        else None)
      snap.hists
  in
  let sorted =
    List.sort
      (fun (t1, h1, _) (t2, h2, _) ->
        match Int.compare (quantile h2 0.99) (quantile h1 0.99) with
        | 0 -> String.compare t1 t2
        | c -> c)
      scored
  in
  List.filteri (fun i _ -> i < k) sorted

let pp_summary ppf snap =
  let line = String.make 70 '-' in
  Format.fprintf ppf "%s@." line;
  Format.fprintf ppf "metrics snapshot (%s)@." schema;
  Format.fprintf ppf "%s@." line;
  if snap.counters <> [] then begin
    Format.fprintf ppf "%-44s %12s@." "counter" "total";
    List.iter
      (fun (k, v) -> Format.fprintf ppf "  %-42s %12d@." k v)
      snap.counters
  end;
  if snap.dists <> [] then begin
    Format.fprintf ppf "%-36s %8s %10s %7s %7s@." "distribution" "count"
      "mean" "min" "max";
    List.iter
      (fun (k, d) ->
        Format.fprintf ppf "  %-34s %8d %10.2f %7d %7d@." k d.d_count
          (float_of_int d.d_sum /. float_of_int (max 1 d.d_count))
          d.d_min d.d_max)
      snap.dists
  end;
  if snap.hists <> [] then begin
    Format.fprintf ppf "%-36s %8s %8s %8s %8s %8s@." "histogram" "count" "p50"
      "p95" "p99" "max";
    List.iter
      (fun (k, h) ->
        Format.fprintf ppf "  %-34s %8d %8d %8d %8d %8d@." k h.h_count
          (quantile h 0.50) (quantile h 0.95) (quantile h 0.99) h.h_max)
      snap.hists
  end;
  if snap.spans <> [] then begin
    Format.fprintf ppf "%-44s %12s@." "span" "count";
    List.iter
      (fun (k, v) -> Format.fprintf ppf "  %-42s %12d@." k v)
      snap.spans
  end;
  (match slo_offenders snap with
  | [] -> ()
  | offenders ->
      Format.fprintf ppf "%-28s %8s %8s %8s %8s %6s@." "tenant (worst p99)"
        "count" "p50" "p99" "max" "errors";
      List.iter
        (fun (t, h, errs) ->
          Format.fprintf ppf "  %-26s %8d %8d %8d %8d %6d@." t h.h_count
            (quantile h 0.50) (quantile h 0.99) h.h_max errs)
        offenders);
  if snap.counters = [] && snap.dists = [] && snap.hists = [] && snap.spans = []
  then Format.fprintf ppf "(empty snapshot)@.";
  Format.fprintf ppf "%s@." line

let pp_float ppf v =
  (* integers (the common case: counters, quantiles) print bare *)
  if Float.is_integer v && Float.abs v < 1e15 then
    Format.fprintf ppf "%d" (int_of_float v)
  else Format.fprintf ppf "%.2f" v

let pp_opt ppf = function
  | None -> Format.pp_print_string ppf "-"
  | Some v -> pp_float ppf v

let pp_diff ?(only_changed = true) ppf changes =
  let changed c =
    match (c.before, c.after) with
    | Some b, Some a -> not (Float.equal b a)
    | None, None -> false
    | _ -> true
  in
  let rows = if only_changed then List.filter changed changes else changes in
  Format.fprintf ppf "%-44s %12s %12s %12s %9s@." "metric" "before" "after"
    "delta" "pct";
  if rows = [] then Format.fprintf ppf "  (no differences)@."
  else
    List.iter
      (fun c ->
        let delta =
          match (c.before, c.after) with
          | Some b, Some a -> Some (a -. b)
          | _ -> None
        in
        let pct =
          match pct_change c with
          | None -> "-"
          | Some p when Float.is_finite p -> Format.asprintf "%+.1f%%" p
          | Some p -> if p > 0. then "+inf" else "-inf"
        in
        let s v = Format.asprintf "%a" pp_opt v in
        Format.fprintf ppf "  %-42s %12s %12s %12s %9s@." c.key (s c.before)
          (s c.after) (s delta) pct)
      rows
