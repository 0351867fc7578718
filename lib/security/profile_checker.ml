module type ITEM_STORE = sig
  type store

  val keys : store -> string list
  val generation : store -> int
  val fingerprint : store -> string -> int64
end

type violation =
  | Modified of string
  | Added of string
  | Removed of string

let violation_key = function Modified k | Added k | Removed k -> k

let pp_violation ppf = function
  | Modified k -> Format.fprintf ppf "modified:%s" k
  | Added k -> Format.fprintf ppf "added:%s" k
  | Removed k -> Format.fprintf ppf "removed:%s" k

module Keys = Map.Make (String)

module Make (S : ITEM_STORE) = struct
  (* The baseline, grouped by region: [groups.(r)] maps every baseline
     key of region [r] to its fingerprint. A region check touches only
     its own group, never the rest of the baseline. [live.(r)] lists
     the store's keys of region [r], in [S.keys] order, as they were
     at generation [live_gen]: the store is partitioned again only
     when its key set has changed, not on every check. *)
  type t = {
    store : S.store;
    n_regions : int;
    groups : int64 Keys.t array;
    live : string list array;
    mutable live_gen : int;
  }

  let region_of_key_raw n_regions key =
    Int64.to_int (Int64.rem (Int64.logand (Hash.fnv1a64 key) Int64.max_int)
                    (Int64.of_int n_regions))

  let partition t =
    Array.fill t.live 0 t.n_regions [];
    List.iter
      (fun key ->
        let r = region_of_key_raw t.n_regions key in
        t.live.(r) <- key :: t.live.(r))
      (List.rev (S.keys t.store));
    t.live_gen <- S.generation t.store

  let live_keys t region =
    if S.generation t.store <> t.live_gen then partition t;
    t.live.(region)

  let rebaseline t =
    for r = 0 to t.n_regions - 1 do
      t.groups.(r) <-
        List.fold_left
          (fun group key -> Keys.add key (S.fingerprint t.store key) group)
          Keys.empty (live_keys t r)
    done

  let create store ~n_regions =
    if n_regions < 1 then invalid_arg "Profile_checker.create: n_regions < 1";
    let t =
      { store; n_regions; groups = Array.make n_regions Keys.empty;
        live = Array.make n_regions []; live_gen = 0 }
    in
    partition t;
    rebaseline t;
    t

  let n_regions t = t.n_regions
  let region_of_key t key = region_of_key_raw t.n_regions key

  let check_region t region =
    let group = t.groups.(region) in
    let current = live_keys t region in
    let live_violations =
      List.filter_map
        (fun key ->
          match Keys.find_opt key group with
          | None -> Some (Added key)
          | Some fp ->
              if S.fingerprint t.store key <> fp then Some (Modified key)
              else None)
        current
    in
    (* What is left of the group once every live key is taken out. *)
    let gone = List.fold_left (fun g key -> Keys.remove key g) group current in
    let removed = Keys.fold (fun key _ acc -> Removed key :: acc) gone [] in
    List.sort compare (live_violations @ removed)

  let check_all t =
    List.concat_map (check_region t) (List.init t.n_regions (fun r -> r))

  let accept t ~key =
    let r = region_of_key t key in
    t.groups.(r) <-
      (if List.mem key (live_keys t r) then
         Keys.add key (S.fingerprint t.store key) t.groups.(r)
       else Keys.remove key t.groups.(r))
end
