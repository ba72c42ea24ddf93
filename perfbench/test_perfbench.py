"""Tests of the benchmark itself: its statistics, its seed argument and its
correctness gates.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The seed and gate tests build the harness and spcdd first (run.build(),
incremental after the first benchmark run) and take about half a minute.
"""

import json
import statistics
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(run.median([3, 1, 2]), 2)
        self.assertEqual(run.median([4, 1, 3, 2]), 2.5)
        self.assertEqual(run.median([7]), 7)

    def test_matches_inclusive_quantiles(self):
        values = [0.3, 9.1, 2.2, 7.7, 5.0, 1.4, 8.8, 6.1, 4.9, 3.3, 2.0]
        cuts = statistics.quantiles(values, n=10, method="inclusive")
        for i, q in enumerate(range(10, 100, 10)):
            self.assertAlmostEqual(run.percentile(values, q), cuts[i])
        self.assertEqual(run.percentile(values, 0), min(values))
        self.assertEqual(run.percentile(values, 100), max(values))

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            run.percentile([], 50)

    def test_tail_percentile_keeps_ten_samples_beyond(self):
        self.assertIsNone(run.tail_percentile(19))
        self.assertEqual(run.tail_percentile(20), 50)
        self.assertEqual(run.tail_percentile(99), 50)
        self.assertEqual(run.tail_percentile(100), 90)
        self.assertEqual(run.tail_percentile(999), 90)
        self.assertEqual(run.tail_percentile(1000), 99)
        self.assertEqual(run.tail_percentile(10000), 99.9)


class FastestUnitsTest(unittest.TestCase):
    PHASE = {"work": 40.0, "seconds": 7.0,
             "lat_ms": [1.0, 1.0, 4.0, 4.0, 2.0, 2.0, 1.0],
             "unit_work": [10.0, 10.0, 10.0, 10.0],
             "unit_s": [1.0, 4.0, 1.0, 1.0],
             "unit_lat_end": [2, 4, 6, 7]}

    def test_keeps_the_fastest_share_with_their_latencies(self):
        kept = run.fastest_units(self.PHASE, 0.5)
        self.assertEqual(kept["work"], 20.0)
        self.assertEqual(kept["seconds"], 2.0)
        self.assertEqual(sorted(kept["lat_ms"]), [1.0, 1.0, 2.0, 2.0])

    def test_keeps_at_least_one_unit(self):
        kept = run.fastest_units(self.PHASE, 0.1)
        self.assertEqual(kept["seconds"], 1.0)
        self.assertEqual(len(kept["lat_ms"]), 2)

    def test_all_units_without_a_share(self):
        m = run.phase_metrics(self.PHASE)
        self.assertAlmostEqual(m["throughput_per_s"], 40.0 / 7.0)
        self.assertEqual(m["ack_p50_ms"], 2.0)


class FastestSegmentsTest(unittest.TestCase):
    PHASE = {"work": 30.0, "seconds": 21.0, "lat_ms": [7e3, 8e3, 6e3],
             "unit_work": [10.0, 10.0, 10.0],
             "unit_s": [7.0, 8.0, 6.0], "unit_lat_end": [1, 2, 3],
             "unit_segments": [[1.0, 4.0, 2.0],
                               [3.0, 3.0, 2.0],
                               [2.0, 2.0, 2.0]]}

    def test_each_segment_at_its_fastest(self):
        best = run.fastest_segments(self.PHASE)
        self.assertEqual(best["seconds"], 1.0 + 2.0 + 2.0)
        self.assertEqual(best["work"], 10.0)
        m = run.phase_metrics(self.PHASE, share=0.5)
        self.assertAlmostEqual(m["throughput_per_s"], 10.0 / 5.0)
        self.assertAlmostEqual(m["ack_p50_ms"], 5e3)

    def test_segment_gate_counts_cells_cut_differently(self):
        raw = {"untraced": {"unit_segments": [[1.0, 2.0], [1.0, 2.0]]},
               "traced": {"unit_segments": [[1.0, 2.0, 0.5]]}}
        self.assertEqual(run.segment_gate(raw), 1)
        raw["traced"]["unit_segments"] = []
        self.assertEqual(run.segment_gate(raw), 0)


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        spans = [
            ["cell", 0.0, 10.0, 0, 1],
            ["build", 0.0, 2.0, 1, 1],
            ["run", 2.0, 9.0, 1, 1],
            ["hook", 3.0, 4.0, 3, 1],
            ["hook", 3.5, 5.0, 3, 1],  # overlaps the first hook
            ["cell", 20.0, 21.0, 0, 2],
        ]
        selfs = run.self_times(spans)
        self.assertAlmostEqual(selfs["cell"], 1.0 + 1.0)
        self.assertAlmostEqual(selfs["build"], 2.0)
        self.assertAlmostEqual(selfs["run"], 7.0 - 2.0)
        self.assertAlmostEqual(selfs["hook"], 1.0 + 1.5)


class GateLogicTest(unittest.TestCase):
    RECORD = {"7": "c2c=5 insts=100", "9": "c2c=6 insts=100"}

    def test_sim_gate_against_record_and_first_cell(self):
        a, b = "c2c=5 insts=100", "c2c=6 insts=100"
        raw = {"seed": 7, "cell_stats": [a, a], "traced_cell_stats": []}
        self.assertEqual(run.sim_gate(raw, self.RECORD), 0)
        raw["seed"] = 9
        self.assertEqual(run.sim_gate(raw, self.RECORD), 2)
        raw = {"seed": 8, "cell_stats": [a], "traced_cell_stats": [b]}
        self.assertEqual(run.sim_gate(raw, self.RECORD), 1)

    def test_sim_gate_checks_seed_independent_fields_at_any_seed(self):
        self.assertEqual(run.seed_independent(self.RECORD),
                         {"insts": "100"})
        # Cells that agree with each other but not with the work every
        # recorded seed does.
        shifted = "c2c=4 insts=101"
        raw = {"seed": 8, "cell_stats": [shifted, shifted],
               "traced_cell_stats": [shifted]}
        self.assertEqual(run.sim_gate(raw, self.RECORD), 3)

    def test_service_gate_counts_must_match(self):
        raw = {"values": {"client.events_acked": 512,
                          "client.batches_acked.0": 1,
                          "client.batches_acked.1": 1}}
        service = {"total_events": 512, "tenants": [
            {"name": "tenant-0", "batches": 1},
            {"name": "tenant-1", "batches": 1}]}
        self.assertEqual(run.service_gate(raw, service), [])
        service["tenants"][1]["batches"] = 2
        self.assertEqual(len(run.service_gate(raw, service)), 1)
        service["total_events"] = 256
        self.assertEqual(len(run.service_gate(raw, service)), 2)


class BuiltProgramTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.harness, cls.spcdd = run.build()

    def harness_out(self, *args):
        return subprocess.run([str(self.harness), *args], check=True,
                              capture_output=True, text=True).stdout.strip()

    def test_seed_sets_batch_content(self):
        a = self.harness_out("--batch-digest", "--seed", "11")
        self.assertEqual(a, self.harness_out("--batch-digest", "--seed",
                                             "11"))
        self.assertNotEqual(a, self.harness_out("--batch-digest", "--seed",
                                                "12"))

    def test_seed_sets_simulated_statistics(self):
        expected = json.loads(run.EXPECTED_SIM.read_text())
        with tempfile.TemporaryDirectory() as d:
            stats = []
            for seed in (3, 3, 4):
                out = Path(d) / "raw.json"
                self.harness_out("--workload", "sim_sp_spcd", "--seed",
                                 str(seed), "--seconds", "1", "--trace", "0",
                                 "--workdir", d, "--out", str(out))
                stats.append(json.loads(out.read_text())["cell_stats"][0])
        self.assertEqual(stats[0], stats[1])
        self.assertEqual(stats[0], expected["3"])
        self.assertNotEqual(stats[0], stats[2])

    def test_replay_gate_fails_on_an_altered_journal(self):
        with tempfile.TemporaryDirectory() as d:
            out = Path(d) / "raw.json"
            self.harness_out("--workload", "svc_inproc_2t", "--seed", "5",
                             "--seconds", "1", "--trace", "0",
                             "--workdir", d, "--out", str(out))
            journal = json.loads(out.read_text())["artifacts"]["journal"]
            rc, _ = run.replay_gate(self.spcdd, journal)
            self.assertEqual(rc, 0)
            # A rotated generation is never a torn tail: any damage to it
            # must fail the replay.
            oldest = sorted(Path(d).glob("*.journal.g*"))[0]
            data = bytearray(oldest.read_bytes())
            data[len(data) // 2] ^= 0x55
            oldest.write_bytes(bytes(data))
            rc, _ = run.replay_gate(self.spcdd, journal)
            self.assertNotEqual(rc, 0)


if __name__ == "__main__":
    unittest.main()
