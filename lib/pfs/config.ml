open Ccpfs_util

type t = {
  page : int;
  dirty_min : int;
  dirty_max : int;
  flush_period : float;
  extent_cache_limit : int;
  cleanup_batch : int;
  cleanup_period : float;
  extent_log : bool;
  flush_wire_page_only : bool;
  replication : int;
}

let default =
  {
    page = Units.page;
    dirty_min = 256 * Units.mib;
    dirty_max = 4 * Units.gib;
    flush_period = 0.05;
    extent_cache_limit = 256 * 1024;
    cleanup_batch = 1024;
    cleanup_period = 0.1;
    extent_log = false;
    flush_wire_page_only = false;
    replication = 0;
  }

let with_dirty_limits ~dirty_min ~dirty_max t = { t with dirty_min; dirty_max }
let with_extent_cache ~limit t = { t with extent_cache_limit = limit }
let with_extent_log extent_log t = { t with extent_log }

let with_flush_wire_page_only flush_wire_page_only t =
  { t with flush_wire_page_only }

let with_batching ~k t =
  if k > 1 then invalid_arg "Config.with_batching: RPC batching was removed";
  t

let with_replication f t =
  if f < 0 then invalid_arg "Config.with_replication: f must be >= 0";
  { t with replication = f }
