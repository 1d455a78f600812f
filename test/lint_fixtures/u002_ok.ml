type t = { by_access : int; by_alias : int; by_pattern : int }

module Sub = struct
  type s = { in_sub : int }

  let get s = s.in_sub
end

let pattern { by_pattern; _ } = by_pattern
