"""Table 1: system configuration.

Renders the Table 1 summary from the live configuration objects and
checks every headline number against the paper's text.
"""

import repro
from repro.config import GB, MB, default_config, describe_config


def test_tab01_system_configuration():
    cfg = default_config()
    text = describe_config(cfg)
    print("\n" + text)

    # The quantities Table 1 prints, verified against the live objects.
    assert cfg.topology.num_stacks == 16
    assert cfg.topology.units_per_stack == 8
    assert cfg.num_units == 128
    assert cfg.total_capacity == 64 * GB
    assert cfg.memory.capacity_per_unit == 512 * MB
    assert cfg.core.frequency_ghz == 2.0
    assert cfg.num_units * cfg.core.cores_per_unit == 256
    assert cfg.memory.t_cas_ns == cfg.memory.t_rcd_ns == cfg.memory.t_rp_ns == 17.0
    assert cfg.memory.rdwr_pj_per_bit == 5.0
    assert cfg.memory.act_pre_pj == 535.8
    assert cfg.noc.intra_hop_ns == 1.5 and cfg.noc.intra_pj_per_bit == 0.4
    assert cfg.noc.inter_hop_ns == 10.0 and cfg.noc.inter_pj_per_bit == 4.0
    assert cfg.cache.capacity_ratio == 64
    assert cfg.cache.associativity == 4
    assert cfg.cache.num_camps == 3
    assert cfg.cache.bypass_probability == 0.4
    assert cfg.scheduler.exchange_interval_cycles == 100_000
    assert cfg.scheduler.hybrid_weight(cfg.topology, cfg.noc) == 30.0
    assert "4x4 stacks" in text


def test_tab01_tag_storage_matches_section_4_3():
    """Section 4.3's arithmetic: 32768 sets, 10-bit tags, ~160 kB SRAM."""
    system = repro.build_system("O", default_config())
    mapper = system.camp_mapper
    print(f"\nsets/unit        : {mapper.num_sets}")
    print(f"tag bits/block   : {mapper.tag_bits_per_block()}")
    print(f"tag SRAM per unit: {mapper.tag_storage_bytes() / 1024:.0f} kB")
    print(f"tag SRAM area    : {system.sram.tag_area_mm2():.2f} mm^2")
    assert mapper.num_sets == 32768
    assert mapper.tag_bits_per_block() == 10
    assert 150 <= mapper.tag_storage_bytes() / 1024 <= 170
