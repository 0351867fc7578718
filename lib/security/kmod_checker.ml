type module_info = {
  m_name : string;
  m_size : int;
  m_addr : int64;
  m_signature : string;
}

(* [generation] counts the changes to the set of names. *)
type table = { mutable mods : module_info list; mutable generation : int }

let create_table mods = { mods; generation = 0 }

let modules t =
  List.sort (fun a b -> compare a.m_name b.m_name) t.mods

let insert_module t m =
  t.mods <- m :: t.mods;
  t.generation <- t.generation + 1

let hide_module t name =
  if not (List.exists (fun m -> m.m_name = name) t.mods) then raise Not_found;
  t.mods <- List.filter (fun m -> m.m_name <> name) t.mods;
  t.generation <- t.generation + 1

let patch_module t name ~size =
  if not (List.exists (fun m -> m.m_name = name) t.mods) then raise Not_found;
  t.mods <-
    List.map (fun m -> if m.m_name = name then { m with m_size = size } else m)
      t.mods

let default_profile () =
  let m name size addr =
    { m_name = name; m_size = size; m_addr = Int64.of_int addr;
      m_signature = "rpi-4.9.80-rt62-v7+" }
  in
  [ m "bcm2835_gpiomem" 3940 0x7f000000;
    m "bcm2835_v4l2" 45100 0x7f010000;
    m "v4l2_common" 6000 0x7f020000;
    m "videobuf2_core" 33000 0x7f030000;
    m "brcmfmac" 222000 0x7f040000;
    m "brcmutil" 9000 0x7f050000;
    m "cfg80211" 544000 0x7f060000;
    m "snd_bcm2835" 24000 0x7f070000;
    m "spi_bcm2835" 7700 0x7f080000;
    m "i2c_bcm2835" 7200 0x7f090000;
    m "uio_pdrv_genirq" 3700 0x7f0a0000;
    m "fixed" 3000 0x7f0b0000 ]

module Store = struct
  type store = table

  let keys t = List.map (fun m -> m.m_name) t.mods
  let generation t = t.generation

  let fingerprint t key =
    match List.find_opt (fun m -> m.m_name = key) t.mods with
    | None -> raise Not_found
    | Some m ->
        Hash.combine
          (Hash.combine
             (Hash.combine (Hash.words64 m.m_name) (Int64.of_int m.m_size))
             m.m_addr)
          (Hash.words64 m.m_signature)
end

module Checker = Profile_checker.Make (Store)

type t = Checker.t

let create = Checker.create
let n_regions = Checker.n_regions
let region_of_key = Checker.region_of_key
let check_region = Checker.check_region
let check_all = Checker.check_all
let rebaseline = Checker.rebaseline
let accept = Checker.accept
