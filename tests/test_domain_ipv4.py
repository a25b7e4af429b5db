"""Tests for the IPv4 address-space domain."""

import pytest

from repro.domain.ipv4 import ADDRESS_SPACE


class TestAddressConversion:
    def test_parse_and_format_roundtrip(self, ipv4):
        for address in ["0.0.0.0", "10.0.0.1", "192.168.1.255", "255.255.255.255"]:
            assert ipv4.format(ipv4.parse(address)) == address

    def test_parse_rejects_bad_addresses(self, ipv4):
        with pytest.raises(ValueError):
            ipv4.parse("10.0.0")
        with pytest.raises(ValueError):
            ipv4.parse("10.0.0.300")

    def test_format_rejects_out_of_range(self, ipv4):
        with pytest.raises(ValueError):
            ipv4.format(ADDRESS_SPACE)


class TestGeometry:
    def test_diameter(self, ipv4):
        assert ipv4.diameter() == 1.0

    def test_distance_normalised(self, ipv4):
        assert ipv4.distance(0, ADDRESS_SPACE - 1) == pytest.approx(1.0, rel=1e-6)
        assert ipv4.distance("10.0.0.1", "10.0.0.1") == 0.0

    def test_cell_diameter_matches_prefix_length(self, ipv4):
        assert ipv4.cell_diameter(()) == 1.0
        assert ipv4.cell_diameter((0,) * 8) == pytest.approx(2.0**-8)

    def test_level_max_diameter(self, ipv4):
        assert ipv4.level_max_diameter(16) == pytest.approx(2.0**-16)


class TestPrefixCells:
    def test_locate_matches_prefix_bits(self, ipv4):
        address = ipv4.parse("192.168.0.1")
        bits = ipv4.locate(address, 8)
        prefix_value = 0
        for bit in bits:
            prefix_value = (prefix_value << 1) | bit
        assert prefix_value == 192

    def test_locate_accepts_dotted_quad(self, ipv4):
        assert ipv4.locate("10.0.0.1", 8) == ipv4.locate(ipv4.parse("10.0.0.1"), 8)

    def test_locate_rejects_excess_depth(self, ipv4):
        with pytest.raises(ValueError):
            ipv4.locate(0, 33)

    def test_cell_range_matches_cidr(self, ipv4):
        theta = ipv4.locate("10.0.0.0", 8)
        low, high = ipv4.cell_range(theta)
        assert ipv4.format(low) == "10.0.0.0"
        assert ipv4.format(high) == "10.255.255.255"
        assert ipv4.cidr(theta) == "10.0.0.0/8"

    def test_sample_cell_within_prefix(self, ipv4, rng):
        theta = ipv4.locate("172.16.0.0", 12)
        low, high = ipv4.cell_range(theta)
        for _ in range(50):
            address = ipv4.sample_cell(theta, rng)
            assert low <= address <= high

    def test_contains(self, ipv4):
        assert ipv4.contains("8.8.8.8")
        assert ipv4.contains(12345)
        assert not ipv4.contains(-1)
        assert not ipv4.contains("not.an.ip.addr")

    def test_level_frequencies_groups_by_prefix(self, ipv4):
        data = [ipv4.parse("10.0.0.1"), ipv4.parse("10.0.0.2"), ipv4.parse("192.168.0.1")]
        codes, counts = ipv4.level_frequencies(data, 8)
        assert codes.tolist() == [10, 192]
        assert counts.tolist() == [2, 1]
