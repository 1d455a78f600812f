type expansion =
  | Greedy
  | Capped of { max_expand : int; lock_threshold : int }
  | No_expansion

type mode_selection = Seq_modes | Traditional_modes

type t = {
  name : string;
  expansion : expansion;
  early_revocation : bool;
  auto_convert : bool;
  datatype_requests : bool;
  selection : mode_selection;
  piggyback_release : bool;
      (** Ride the final Release (and any pending control messages) on the
          revocation flush instead of sending them as separate RPCs —
          SeqDLM's release-on-last-flush-block rule (paper §III-B).
          The traditional baselines send each control message on its own. *)
}

let seqdlm =
  {
    name = "SeqDLM";
    expansion = Greedy;
    early_revocation = true;
    auto_convert = true;
    datatype_requests = false;
    selection = Seq_modes;
    piggyback_release = true;
  }

let dlm_basic =
  {
    name = "DLM-basic";
    expansion = Greedy;
    early_revocation = false;
    auto_convert = false;
    datatype_requests = false;
    selection = Traditional_modes;
    piggyback_release = false;
  }

let dlm_lustre =
  {
    dlm_basic with
    name = "DLM-Lustre";
    expansion =
      Capped { max_expand = 32 * Ccpfs_util.Units.mib; lock_threshold = 32 };
  }

let dlm_datatype =
  {
    dlm_basic with
    name = "DLM-datatype";
    expansion = No_expansion;
    datatype_requests = true;
  }

let without_early_revocation t =
  { t with name = t.name ^ "-noER"; early_revocation = false }

let without_conversion t =
  { t with name = t.name ^ "-noConv"; auto_convert = false }

let select_write t ~spans_resources ~implicit_read =
  match t.selection with
  | Traditional_modes -> Mode.PW
  | Seq_modes ->
      if implicit_read then Mode.PW
      else if spans_resources then Mode.BW
      else Mode.NBW

let all = [ seqdlm; dlm_basic; dlm_lustre; dlm_datatype ]
