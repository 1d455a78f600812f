(** Typed readers for the [CCPFS_*] environment knobs, the only reads of
    the environment in lib/ and bin/.  README's "Knobs" table lists
    every name, its default and the committed run that sets it; a test
    holds the table to the ["CCPFS_*"] literals of the code.  A knob is
    read when a run asks for it, never at module initialisation.

    Every reader takes the knob's name, its default and its valid range.
    The value is trimmed first; unset or empty means the default.  A value
    that does not parse, or parses but lies outside the range, raises
    [Invalid_argument] naming the knob and the value — a typo must never
    silently run the default configuration.  Lists are comma-separated,
    each element trimmed and checked on its own. *)

val int : string -> default:int -> min:int -> int
(** An integer in [\[min, max_int\]]. *)

val int_list : string -> default:int list -> min:int -> int list
(** A non-empty list of integers, each in [\[min, max_int\]]. *)

val float_list : string -> default:float list -> above:float -> float list
(** A non-empty list of finite floats, each strictly greater than [above]. *)

val flag : string -> default:bool -> bool
(** [0]/[false] or [1]/[true]. *)

val choice : string -> default:string -> string list -> string
(** One of the given lower-case names, matched case-insensitively. *)
