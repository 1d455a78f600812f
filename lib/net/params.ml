type t = {
  rtt : float;
  b_net : float;
  server_ops : float;
  b_disk : float;
  b_mem : float;
  ctl_msg_bytes : int;
  bulk_threshold : int;
  client_io_overhead : float;
}

let default =
  {
    rtt = 10e-6;
    b_net = 12.5e9;
    server_ops = 213_000.;
    b_disk = 3e9;
    b_mem = 10e9;
    ctl_msg_bytes = 256;
    bulk_threshold = 16 * 1024;
    client_io_overhead = 25e-6;
  }

let table1 =
  {
    rtt = 1e-6;
    b_net = 12.5e9;
    server_ops = 1e7;
    b_disk = 3e9;
    b_mem = 2.2e9;
    ctl_msg_bytes = 256;
    bulk_threshold = 16 * 1024;
    client_io_overhead = 0.;
  }

let b_flush t =
  if t.b_net = infinity then t.b_disk
  else if t.b_disk = infinity then t.b_net
  else t.b_net *. t.b_disk /. (t.b_net +. t.b_disk)
