type t = { by_access : int; by_alias : int; by_pattern : int }
type v = Box of { by_cstr_pattern : int; by_cstr_access : int }

module Sub = struct
  type s = { in_sub : int }

  let get s = s.in_sub
end

let pattern { by_pattern; _ } = by_pattern
let unbox (Box { by_cstr_pattern; _ }) = by_cstr_pattern
