open Security.Profile_checker

(* The flat-baseline checker, kept as it was written. The one edit is
   that the fold collecting removed keys now sits inside the final
   sort, which is where its hash-bucket order is erased (rule D3). *)
module Make (S : ITEM_STORE) = struct
  type t = {
    store : S.store;
    n_regions : int;
    baseline : (string, int64) Hashtbl.t;
  }

  let region_of_key_raw n_regions key =
    Int64.to_int (Int64.rem (Int64.logand (Security.Hash.fnv1a64 key) Int64.max_int)
                    (Int64.of_int n_regions))

  let snapshot store n_regions baseline =
    Hashtbl.reset baseline;
    List.iter
      (fun key -> Hashtbl.replace baseline key (S.fingerprint store key))
      (S.keys store);
    ignore n_regions

  let create store ~n_regions =
    if n_regions < 1 then invalid_arg "Profile_checker.create: n_regions < 1";
    let baseline = Hashtbl.create 64 in
    snapshot store n_regions baseline;
    { store; n_regions; baseline }

  let n_regions t = t.n_regions
  let region_of_key t key = region_of_key_raw t.n_regions key

  let check_region t region =
    let current =
      List.filter (fun k -> region_of_key t k = region) (S.keys t.store)
    in
    let seen = Hashtbl.create 16 in
    let live_violations =
      List.filter_map
        (fun key ->
          Hashtbl.replace seen key ();
          match Hashtbl.find_opt t.baseline key with
          | None -> Some (Added key)
          | Some fp ->
              if S.fingerprint t.store key <> fp then Some (Modified key)
              else None)
        current
    in
    List.sort compare
      (live_violations
      @ Hashtbl.fold
          (fun key _ acc ->
            if region_of_key t key = region && not (Hashtbl.mem seen key) then
              Removed key :: acc
            else acc)
          t.baseline [])

  let check_all t =
    List.concat_map (check_region t) (List.init t.n_regions (fun r -> r))

  let rebaseline t = snapshot t.store t.n_regions t.baseline

  let accept t ~key =
    if List.mem key (S.keys t.store) then
      Hashtbl.replace t.baseline key (S.fingerprint t.store key)
    else Hashtbl.remove t.baseline key
end
