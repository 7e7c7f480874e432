(* Test entry point: one Alcotest run over every module's suite. *)

let () =
  Alcotest.run "sdn-buffer"
    [
      ("sim.heap", Test_heap.suite);
      ("sim.rng", Test_rng.suite);
      ("sim.stats", Test_stats.suite);
      ("sim.engine", Test_engine.suite);
      ("sim.timer_wheel", Test_engine.timer_wheel_era_suite);
      ("sim.link", Test_link.suite);
      ("sim.faults", Test_faults.suite);
      ("sim.cpu", Test_cpu.suite);
      ("sim.streams", Test_streams.suite);
      ("net.addresses", Test_addr.suite);
      ("net.checksum", Test_checksum.suite);
      ("net.packet", Test_packet.suite);
      ("openflow.match", Test_of_match.suite);
      ("openflow.codec", Test_of_codec.suite);
      ("openflow.codec-fuzz", Test_of_codec_fuzz.suite);
      ("switch.flow_table", Test_flow_table.suite);
      ("switch.int_table", Test_int_table.suite);
      ("switch.packet_buffer", Test_packet_buffer.suite);
      ("switch.flow_buffer", Test_flow_buffer.suite);
      ("switch.buffer_units", Test_buffer_units.suite);
      ("switch.session", Test_session.suite);
      ("switch.behaviour", Test_switch.suite);
      ("controller", Test_controller.suite);
      ("traffic", Test_traffic.suite);
      ("measure", Test_measure.suite);
      ("integration", Test_experiment.suite);
      ("extensions", Test_extensions.suite);
      ("switch.egress_queue", Test_egress_queue.suite);
      ("switch.buf_policy", Test_buf_policy.suite);
      ("harness", Test_harness.suite);
      ("properties", Test_properties.suite);
      ("failures", Test_failures.suite);
      ("lifecycle", Test_lifecycle.suite);
      ("check", Test_check.suite);
      ("parallel", Test_parallel.suite);
      ("crash", Test_crash.suite);
      ("lint", Test_lint.suite);
      ("analyze", Test_analyze.suite);
      ("model", Test_model.suite);
      ("validate", Test_validate.suite);
    ]
