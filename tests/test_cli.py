import contextlib
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import time
from decimal import Decimal

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from twistcount import cli, graphs, picard
from twistcount.cli import ParseError, emit_graph, main, parse_graph_data
from twistcount.graphs import enumerate_stable_graphs

LOOP = '{"vertices":[{"genus":0,"legs":[1]}],"edges":[{"tail":0,"head":0,"stabilizer":2}]}'
BRIDGE = '{"vertices":[{"genus":1,"legs":[]},{"genus":1,"legs":[]}],"edges":[{"tail":0,"head":1,"stabilizer":1}]}'
LOOP4 = LOOP.replace('"stabilizer":2', '"stabilizer":4')
THETA2 = (
    '{"vertices":[{"genus":0},{"genus":0}],"edges":['
    + ",".join(['{"tail":0,"head":1,"stabilizer":2}'] * 3)
    + "]}"
)
# Not UTF-8: a UTF-16 byte-order mark before "{".
NOT_UTF8 = b"\xff\xfe{"
# Deeper than json's recursion limit.
DEEP = "[" * 5000
# An integer literal past the interpreter's int-from-str digit limit.
HUGE = LOOP.replace('"stabilizer":2', '"stabilizer":' + "1" * 5000)


@pytest.fixture
def loop_path(tmp_path):
    path = tmp_path / "loop.json"
    path.write_text(LOOP)
    return str(path)


@pytest.fixture
def bridge_path(tmp_path):
    path = tmp_path / "bridge.json"
    path.write_text(BRIDGE)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, out


def _child_count(pid):
    with open(f"/proc/{pid}/task/{pid}/children") as f:
        return len(f.read().split())


def _ignores_sigint(pid):
    with open(f"/proc/{pid}/status") as f:
        mask = next(line for line in f if line.startswith("SigIgn:")).split()[1]
    return int(mask, 16) >> (signal.SIGINT - 1) & 1


class TestParsing:
    def test_round_trip(self):
        for G in enumerate_stable_graphs(2, 0, [1, 2]):
            assert parse_graph_data(emit_graph(G)) == G

    def test_bad_index(self):
        with pytest.raises(Exception):
            parse_graph_data(
                {"vertices": [{"genus": 0, "legs": []}], "edges": [{"tail": 0, "head": 5}]}
            )

    def test_position_in_error(self):
        with pytest.raises(ParseError, match=r"vertices\[0\]"):
            parse_graph_data({"vertices": [{"genus": -1, "legs": []}], "edges": []})

    @pytest.mark.parametrize(
        "data",
        [
            {"vertices": [{"genus": True}], "edges": []},
            {"vertices": [{"genus": 0, "legs": [False]}], "edges": []},
            {
                "vertices": [{"genus": 0, "legs": [1]}],
                "edges": [{"tail": 0, "head": 0, "stabilizer": True}],
            },
            {
                "vertices": [{"genus": 0, "legs": [1]}],
                "edges": [{"tail": False, "head": 0}],
            },
        ],
    )
    def test_bool_is_not_an_integer(self, data):
        with pytest.raises(ParseError):
            parse_graph_data(data)

    def test_disconnected(self):
        with pytest.raises(Exception):
            parse_graph_data(
                {
                    "vertices": [{"genus": 1, "legs": []}, {"genus": 1, "legs": []}],
                    "edges": [],
                }
            )


class TestCommands:
    def test_genus(self, capsys, loop_path):
        code, out = run_cli(capsys, "genus", loop_path)
        assert code == 0
        assert json.loads(out) == {"genus": 1}

    def test_torsion(self, capsys, loop_path):
        code, out = run_cli(capsys, "torsion", loop_path, "-r", "2")
        assert code == 0
        assert json.loads(out) == {"torsion_count": 4}

    def test_roots_default_bundle(self, capsys, loop_path):
        code, out = run_cli(capsys, "roots", loop_path, "-r", "2")
        assert code == 0
        assert json.loads(out) == {"count": 4}

    def test_roots_no_roots_on_bridge(self, capsys, bridge_path):
        code, out = run_cli(capsys, "roots", bridge_path, "-r", "2", "--bundle", "omega:k=1")
        assert code == 0
        assert json.loads(out) == {"count": 0}

    def test_roots_bundle_file(self, capsys, loop_path, tmp_path):
        bundle = tmp_path / "bundle.json"
        bundle.write_text('{"int_part":[0],"mult":[1]}')
        code, out = run_cli(capsys, "roots", loop_path, "-r", "2", "--bundle-file", str(bundle))
        assert code == 0
        assert json.loads(out) == {"count": 0}  # total degree 1 is odd

    def test_criterion(self, capsys, bridge_path):
        code, out = run_cli(capsys, "criterion", bridge_path, "-r", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["criterion"] is False
        assert payload["witnesses"]

    def test_classify(self, capsys, bridge_path):
        code, out = run_cli(capsys, "classify", bridge_path, "-e", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["separating"] is True and payload["type"] == 1

    def test_lift(self, capsys, tmp_path):
        path = tmp_path / "b2.json"
        path.write_text(
            '{"vertices":[{"genus":1},{"genus":1}],"edges":[{"tail":0,"head":1,"stabilizer":2}]}'
        )
        code, out = run_cli(capsys, "lift", str(path), "-r", "2", "-t", "1,1")
        assert code == 0
        assert json.loads(out) == {"member": True, "lift": [1]}
        # A graph without edges lifts every member to the empty tuple.
        path.write_text('{"vertices":[{"genus":1,"legs":[1]}],"edges":[]}')
        code, out = run_cli(capsys, "lift", str(path), "-r", "3", "-t", "0")
        assert code == 0
        assert json.loads(out) == {"member": True, "lift": []}

    def test_orbits(self, capsys, loop_path):
        code, out = run_cli(capsys, "orbits", loop_path, "-r", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["orbits"] == 3 and payload["sizes"] == [2, 1, 1]

    @pytest.mark.parametrize(
        "graph, r, flags, payload",
        [
            (LOOP4, 4, (), '{"classes":16,"orbits":8,"sizes":[4,4,2,2,1,1,1,1]}'),
            (LOOP4, 4, ("--nontrivial",), '{"classes":15,"orbits":7,"sizes":[4,4,2,2,1,1,1]}'),
            (LOOP4, 4, ("--involution",), '{"classes":16,"orbits":6,"sizes":[8,2,2,2,1,1]}'),
            (
                LOOP4,
                4,
                ("--involution", "--nontrivial"),
                '{"classes":15,"orbits":5,"sizes":[8,2,2,2,1]}',
            ),
            # No root of omega has multiplicity 0, so no class is dropped.
            (THETA2, 2, ("--nontrivial",), '{"classes":16,"orbits":7,"sizes":[4,2,2,2,2,2,2]}'),
        ],
        ids=["plain", "nontrivial", "involution", "involution-nontrivial", "no-trivial-class"],
    )
    def test_orbits_enumerate_classes_once(self, capsys, tmp_path, graph, r, flags, payload):
        # --nontrivial drops the orbit of the trivial class, a singleton;
        # sizes come from arithmetic, so no class is built (the library
        # cannot reach the class-level oracles: tests/test_package.py).
        path = tmp_path / "graph.json"
        path.write_text(graph)
        code, out = run_cli(capsys, "orbits", str(path), "-r", str(r), *flags)
        assert code == 0
        assert out == payload

    @pytest.mark.parametrize(
        "max_domain, code, out, err",
        [
            ("3", 1, "", "tc: error: 4 discrete roots exceed the cap 3\n"),
            ("8", 0, '{"classes":16,"orbits":8,"sizes":[4,4,2,2,1,1,1,1]}\n', ""),
            ("7", 1, "", "tc: error: 8 orbits exceed the cap 7\n"),
        ],
        ids=["roots-cap", "classes-cap", "orbits-cap"],
    )
    def test_orbits_caps(self, capsys, tmp_path, max_domain, code, out, err):
        # 4 discrete roots, 16 root classes and 8 orbits.  The listed roots
        # and the listed orbit sizes are capped, the classes are not.
        path = tmp_path / "graph.json"
        path.write_text(LOOP4)
        status = main(["orbits", str(path), "-r", "4", "--max-domain", max_domain])
        captured = capsys.readouterr()
        assert (status, captured.out, captured.err) == (code, out, err)

    def test_enumerate(self, capsys):
        code, out = run_cli(capsys, "enumerate", "-g", "2")
        assert code == 0
        assert json.loads(out)["count"] == 7

    def test_enumerate_genus_five(self, capsys):
        # The 4,555 genus-5 shapes (Maggiolo-Pagani); (5, 0) has at most 8
        # vertices, so the vertex cap admits it.
        code = main(["enumerate", "-g", "5"])
        assert (code, capsys.readouterr().out) == (0, '{"count":4555}\n')

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ("enumerate", "-g", "2", "--stabilizers", "1,2,3", "--list"),
                "4b57c3959c05a9974fab6ee9615471d76cb1b17f6a95331aa0a62794ca47d93c",
            ),
            (
                ("enumerate", "-g", "2", "-n", "2", "--stabilizers", "1,2", "--list"),
                "8432ad89259931ee2e444b42ce00903d25b34f6806e88e84bc98d7904a5b219b",
            ),
            # The two calls of the benchmark's enumerate workload.
            (
                ("enumerate", "-g", "3", "--stabilizers", "1,2,3,4,6", "--list"),
                "a953b320eac625b77d63e13447d181ae9c0c481bb043d8eaae2a80bd344d6794",
            ),
            (
                ("enumerate", "-g", "4", "--list"),
                "8e817f51749b226ad508195ae36654eb8d17d3812e4e850e350f833c0b890315",
            ),
            (
                ("enumerate", "-g", "2", "--stabilizers", "1,2,3", "--list", "--format", "tsv"),
                "cd298fe504beeeffc53c01fe935d45f785bcdab103b4548fa60c3e10662031f4",
            ),
            (
                ("enumerate", "-g", "3", "--stabilizers", "1,2", "--list", "--format", "tsv"),
                "8193282a8883495c96e89e2ca3f39f4a74b7779ec5655290cf4ab464a19e5b50",
            ),
            # Stabilizer 12 sorts before 2 as text but after it as a number.
            (
                ("enumerate", "-g", "2", "-n", "1", "--stabilizers", "1,2,12", "--list"),
                "bc92ce1089c5655218abcf35682aef57efb9f3710e32692a90ba9e8454679e19",
            ),
        ],
    )
    def test_enumerate_output_pinned(self, capsys, argv, digest):
        # SHA-256 of the exact stdout, newline included: the representatives,
        # their vertex and edge order and the output order are all pinned.
        assert main(list(argv)) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    THETA = (
        '{"vertices":[{"genus":0,"legs":[1]},{"genus":0,"legs":[]}],'
        '"edges":[{"tail":0,"head":1,"stabilizer":2},{"tail":0,"head":1,"stabilizer":4},'
        '{"tail":1,"head":1,"stabilizer":4}]}'
    )
    TRIANGLE = (
        '{"vertices":[{"genus":0,"legs":[1,2]},{"genus":0,"legs":[3]},{"genus":0,"legs":[4]}],'
        '"edges":[{"tail":0,"head":1,"stabilizer":4},{"tail":1,"head":2,"stabilizer":6},'
        '{"tail":2,"head":0,"stabilizer":3},{"tail":1,"head":1,"stabilizer":12}]}'
    )

    @pytest.mark.parametrize(
        "graph, args, digest",
        [
            (
                THETA,
                ("-r", "4", "--bundle", "omega:k=2"),
                "f134de7a92b3a989d92bbd589c2100c6ea53d48532a874dd2cdd20a9a68b4b42",
            ),
            (
                # The bundle is L^12 for L = ([1, 0, -1], [1, 3, 2, 5]).
                TRIANGLE,
                ("-r", "12", "--bundle-file", "{bundle}"),
                "90f8e180b5cb39bb4c248c353a63f5d6314c5e13bd07ab96a9a0cb2917730f6d",
            ),
        ],
    )
    def test_roots_list_pinned(self, capsys, tmp_path, graph, args, digest):
        # SHA-256 of the exact stdout: the discrete roots and their order
        # (lexicographic in the per-edge solution parameters) are pinned.
        path = tmp_path / "graph.json"
        path.write_text(graph)
        bundle = tmp_path / "bundle.json"
        bundle.write_text('{"int_part": [29, 21, -2], "mult": [0, 0, 0, 0]}')
        argv = ["roots", str(path), *(a.format(bundle=bundle) for a in args), "--list"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_roots_list_on_many_loops_pinned(self, capsys, tmp_path):
        # 2,001 loops of stabilizer 1 at r = 2 carry one discrete root,
        # listed by a walk 2,001 edges deep: stdout is pinned, and no
        # recursion limit is met on the way.
        path = tmp_path / "loops.json"
        loop = {"tail": 0, "head": 0, "stabilizer": 1}
        path.write_text(json.dumps({"vertices": [{"genus": 0}], "edges": [loop] * 2001}))
        assert main(["roots", str(path), "-r", "2", "--list"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        digest = "8aec1ed4c625748b5d482d5683f4478d16f7afe38ca63937efc3465ca2f9c295"
        assert hashlib.sha256(captured.out.encode()).hexdigest() == digest

    def test_nr(self, capsys):
        code, out = run_cli(capsys, "nr", "-r", "11")
        assert code == 0
        assert json.loads(out) == {
            "degree": 60,
            "j1728": 30,
            "j0": 20,
            "cusp": 10,
            "chi": 0,
            "genus": 1,
        }

    def test_ratio(self, capsys):
        code, out = run_cli(capsys, "ratio", "-r", "4", "-d", "2,2")
        assert code == 0
        assert json.loads(out)["ratio"] == "4"

    @pytest.mark.parametrize("fmt", ["json", "tsv"])
    def test_ratio_past_the_digit_limit(self, capsys, fmt):
        # r^2 has 4,401 digits, past the int-to-str limit that guards the
        # input; the ratio is written in full, as the numerator is.
        big = "1" + "0" * 4400
        code = main(["ratio", "-r", "1" + "0" * 2200, "-d", "1,1", "--format", fmt])
        expected = {
            "json": f'{{"ratio":"{big}","numerator":{big},"denominator":1}}\n',
            "tsv": f"ratio\tnumerator\tdenominator\n{big}\t{big}\t1\n",
        }[fmt]
        assert (code, capsys.readouterr().out) == (0, expected)

    def test_verify_cond(self, capsys):
        code, out = run_cli(capsys, "verify-cond", "-g", "2", "-r", "2", "-l", "2,2")
        assert code == 0
        payload = json.loads(out)
        assert payload["equivalent"] is True

    def test_verify_rootsnum_small(self, capsys):
        code, out = run_cli(
            capsys,
            "verify-rootsnum",
            "-g",
            "2",
            "--stabilizers",
            "1,2",
            "-r",
            "2",
            "--random-bundles",
            "3",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["discrepancies"] == []
        assert payload["graphs"] == 22

    def test_verify_rootsnum_output_pinned(self, capsys):
        code, out = run_cli(
            capsys,
            "verify-rootsnum",
            *("-g", "2", "--stabilizers", "1,2", "-r", "2,3", "--random-bundles", "3"),
        )
        assert code == 0
        assert out == '{"graphs":22,"checked":264,"discrepancies":[]}'

    def test_verify_rootsnum_jobs_output_identical(self, capsys):
        argv = ("verify-rootsnum", "-g", "2", "--stabilizers", "1,2", "-r", "2,4")
        argv += ("--random-bundles", "5")
        outputs = [run_cli(capsys, *argv, "--jobs", jobs) for jobs in ("1", "2")]
        assert outputs[0][0] == 0
        assert outputs[1] == outputs[0]

    def test_verify_rootsnum_wide_domains(self, capsys):
        # Solution domains up to 12^6, beyond the listing cap: counts never
        # sweep the domain, so the family is checked in full.
        code, out = run_cli(
            capsys, "verify-rootsnum", "-g", "3", "--stabilizers", "12", "-r", "12"
        )
        assert code == 0
        assert out == '{"graphs":42,"checked":2226,"discrepancies":[]}'

    def test_verify_rootsnum_divisible_orders(self, capsys):
        # r = 12 over stabilizers {4, 6, 12}: gcd(l_e, r) takes three values,
        # so the criterion's divisibility side is least trivial here.
        code, out = run_cli(
            capsys, "verify-rootsnum", "-g", "3", "--stabilizers", "4,6,12", "-r", "12"
        )
        assert code == 0
        assert out == '{"graphs":2638,"checked":139814,"discrepancies":[]}'

    def test_verify_rootsnum_discrepancies_replay(self, capsys, monkeypatch, tmp_path):
        # Negate the criterion on every check it is asked about, so every
        # check of an order that passes the stabilizer test is reported:
        # count 0 where the true criterion fails, r^(2g) where it passes.
        # Each report must replay through tc roots.
        holds = picard._Criterion.holds
        monkeypatch.setattr(
            picard._Criterion, "holds", lambda self, d, mult: not holds(self, d, mult)
        )
        code, out = run_cli(
            capsys,
            "verify-rootsnum",
            *("-g", "2", "--stabilizers", "1,2", "-r", "2,4", "--random-bundles", "2"),
        )
        assert code == 0
        discrepancies = json.loads(out)["discrepancies"]
        assert len(discrepancies) > 10
        assert {rec["count"] == 0 for rec in discrepancies} == {False, True}
        for k, rec in enumerate(discrepancies):
            assert set(rec["bundle"]) == {"int_part", "mult"}
            graph_path = tmp_path / f"graph{k}.json"
            bundle_path = tmp_path / f"bundle{k}.json"
            graph_path.write_text(json.dumps(rec["graph"]))
            bundle_path.write_text(json.dumps(rec["bundle"]))
            code, replay = run_cli(
                capsys,
                "roots",
                str(graph_path),
                "-r",
                str(rec["r"]),
                "--bundle-file",
                str(bundle_path),
            )
            assert code == 0
            assert json.loads(replay)["count"] == rec["count"]

    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(LOOP))
        code, out = run_cli(capsys, "genus", "-")
        assert code == 0
        assert json.loads(out) == {"genus": 1}

    def test_tsv_format(self, capsys, loop_path):
        code, out = run_cli(capsys, "genus", "--format", "tsv", loop_path)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "genus" and lines[1] == "1"


def _live_dicts():
    """A dict subclass that counts its live instances and their peak."""

    class Live(dict):
        alive = peak = 0

        def __init__(self, *args):
            super().__init__(*args)
            Live.alive += 1
            Live.peak = max(Live.peak, Live.alive)

        def __del__(self):
            Live.alive -= 1

    return Live


# Runs tc in a child that reports its own peak RSS in KiB on stderr.  That
# is VmHWM, not ru_maxrss: exec keeps ru_maxrss from the parent's memory at
# the fork, so under a large test process both runs would read the same.
RSS_CHILD = (
    "import sys\n"
    "from twistcount.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "sys.stdout.flush()\n"
    "with open('/proc/self/status') as f:\n"
    "    print(next(l for l in f if l.startswith('VmHWM:')).split()[1], file=sys.stderr)\n"
    "sys.exit(code)\n"
)


TRACE_CHILD = (
    "import sys, tracemalloc\n"
    "from twistcount.cli import main\n"
    "tracemalloc.start()\n"
    "code = main(sys.argv[1:])\n"
    "print(tracemalloc.get_traced_memory()[1], file=sys.stderr)\n"
    "sys.exit(code)\n"
)


def _loop_refusal_peaks(tmp_path, stabilizer, options, refusal):
    """tracemalloc peaks of `tc orbits` refusing one vertex with 2,000 and
    4,000 loops of this stabilizer.  Each call runs in a fresh interpreter
    and is traced from the call on, so both sizes pay the same one-time
    costs whatever ran before them; the child writes its peak to stderr
    after the refusal."""
    path = tmp_path / "loops.json"
    loop = {"tail": 0, "head": 0, "stabilizer": stabilizer}
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    peaks = []
    for n in (2000, 4000):
        path.write_text(json.dumps({"vertices": [{"genus": 0}], "edges": [loop] * n}))
        proc = subprocess.run(
            [sys.executable, "-c", TRACE_CHILD, "orbits", str(path), *options],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        err, peak = proc.stderr.rstrip("\n").rsplit("\n", 1)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert (err + "\n").endswith(refusal)
        peaks.append(int(peak))
    return peaks


class TestStreamedOutput:
    @pytest.mark.parametrize("fmt", ["json", "tsv"])
    @pytest.mark.parametrize(
        "emitters, argv, items",
        [
            # A listed graph is written from the text of its vertices and
            # edges, whose dicts are built one at a time and only once.
            (
                ("_vertex_dict", "_edge_dict"),
                ("enumerate", "-g", "3", "--stabilizers", "1,2", "--list"),
                463,
            ),
            (
                ("emit_bundle",),
                ("roots", "{graph}", "-r", "5", "--bundle-file", "{bundle}", "--list"),
                25,
            ),
        ],
        ids=["enumerate", "roots"],
    )
    def test_list_holds_one_item_at_a_time(
        self, capsys, monkeypatch, tmp_path, fmt, emitters, argv, items
    ):
        graph = tmp_path / "graph.json"
        graph.write_text(
            '{"vertices":[{"genus":0,"legs":[1,2]}],'
            '"edges":[{"tail":0,"head":0,"stabilizer":5},{"tail":0,"head":0,"stabilizer":5}]}'
        )
        bundle = tmp_path / "trivial.json"
        bundle.write_text('{"int_part": [0], "mult": [0, 0]}')
        Live = _live_dicts()
        for name in emitters:
            emit = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda item, emit=emit: Live(emit(item)))
        argv = [a.format(graph=graph, bundle=bundle) for a in argv]
        assert main([*argv, "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert (Live.peak, Live.alive) == (1, 0)
        assert out.count('"int_part"' if emitters == ("emit_bundle",) else '"vertices"') == items

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc"
    )
    def test_list_runs_in_count_only_memory(self):
        # 31,156 graphs, 8 MB of JSON: listing them may not cost more than
        # a few MiB over counting them.
        argv = ["enumerate", "-g", "3", "--stabilizers", "1,2,3,4,6"]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        peaks = []
        for extra in ([], ["--list"]):
            proc = subprocess.run(
                [sys.executable, "-c", RSS_CHILD, *argv, *extra],
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                env=env,
                timeout=60,
            )
            assert proc.returncode == 0
            peaks.append(int(proc.stderr))
        assert peaks[1] - peaks[0] <= 8 * 1024, peaks

    @pytest.mark.parametrize("fmt", ["json", "tsv"])
    @pytest.mark.parametrize(
        "argv",
        [
            # Legs, loops and parallel edges, the edgeless {"genus":1,"legs":[1]}
            # graph, and stabilizer 12 next to 1 and 2.
            ("-g", "2", "-n", "2", "--stabilizers", "1,2"),
            ("-g", "2", "--stabilizers", "1,2,3"),
            ("-g", "1", "-n", "1"),
            ("-g", "2", "-n", "1", "--stabilizers", "1,2,12"),
        ],
        ids=["legs", "loops", "edgeless", "stabilizer-12"],
    )
    def test_listed_graphs_match_json_dumps(self, capsys, fmt, argv):
        assert main(["enumerate", *argv, "--list", "--format", fmt]) == 0
        found = enumerate_stable_graphs(*_family(argv))
        _assert_same_text(capsys.readouterr().out, _dumped(found, fmt))

    @pytest.mark.parametrize("fmt", ["json", "tsv"])
    def test_listed_huge_stabilizers_match_json_dumps(self, capsys, monkeypatch, fmt):
        # Stabilizers past the int-to-str digit limit, and graphs that share
        # an Edge at different positions and differ at the same position.
        huge = 10**4400 + 1
        loop, bridge = graphs.Edge(1, 1, huge), graphs.Edge(0, 1, huge - 2)
        vertices = (graphs.Vertex(1, (1,)), graphs.Vertex(0, (2, 3)))
        found = [
            graphs.DualGraph(vertices, (loop, bridge)),
            graphs.DualGraph(vertices, (bridge, loop, graphs.Edge(0, 1, 12))),
            graphs.DualGraph(vertices[:1], ()),
        ]
        monkeypatch.setattr(graphs, "enumerate_stable_graphs", lambda *args: found)
        assert main(["enumerate", "-g", "1", "--list", "--format", fmt]) == 0
        out = capsys.readouterr().out
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            expected = _dumped(found, fmt)
        finally:
            sys.set_int_max_str_digits(limit)
        _assert_same_text(out, expected)


def _family(argv):
    """(g, n, stabilizers) of enumerate's -g, -n and --stabilizers."""
    opts = dict(zip(argv[::2], argv[1::2]))
    return int(opts["-g"]), int(opts.get("-n", 0)), cli._csv_ints(opts.get("--stabilizers", "1"))


def _assert_same_text(out, expected):
    # Name the first differing offset: pytest's diff of megabytes of text
    # takes minutes.
    if out != expected:
        at = next(i for i, (a, b) in enumerate(zip(out + "$", expected + "^")) if a != b)
        window = slice(max(at - 40, 0), at + 40)
        raise AssertionError(f"offset {at}: {out[window]!r} != {expected[window]!r}")


def _dumped(found, fmt):
    """The enumerate --list output as one json.dumps of the whole payload."""
    listed = [emit_graph(G) for G in found]
    if fmt == "json":
        payload = {"count": len(found), "graphs": listed}
        return json.dumps(payload, separators=(",", ":")) + "\n"
    return f"count\tgraphs\n{len(found)}\t{json.dumps(listed)}\n"


class TestExitCodes:
    def test_domain_error_is_one(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"vertices": [], "edges": []}')
        code = main(["genus", str(path)])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file_is_one(self, capsys):
        assert main(["genus", "/nonexistent/graph.json"]) == 1
        capsys.readouterr()

    def test_usage_error_is_two(self, capsys):
        # The vertex cap is fixed, so --max-vertices is an unknown option.
        # Every other option is accepted only after a subcommand that reads
        # it, and a bundle comes from a builder string or a file, not both.
        for argv in (
            ["torsion"],
            ["enumerate", "-g", "2", "--max-vertices", "8"],
            ["--format", "tsv", "genus", "F"],
            ["genus", "F", "--jobs", "2"],
            ["verify-cond", "-g", "2", "-r", "2", "-l", "2,2", "--seed", "1"],
            ["nr", "-r", "5", "--max-domain", "9"],
            ["roots", "F", "-r", "2", "--bundle", "omega:k=1", "--bundle-file", "B"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        capsys.readouterr()

    def test_closed_stdout_exits_quietly(self):
        # The reader stops after 10 of about 119 kB (139 kB as TSV), so the
        # write fails.
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        for fmt, head in (("json", b'{"count":4'), ("tsv", b"count\tgrap")):
            argv = ["enumerate", "-g", "3", "--stabilizers", "1,2", "--list", "--format", fmt]
            proc = subprocess.Popen(
                [sys.executable, "-m", "twistcount.cli", *argv],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                env=env,
            )
            assert proc.stdout.read(10) == head
            proc.stdout.close()
            err = proc.stderr.read()
            proc.stderr.close()
            assert proc.wait(timeout=60) == 1
            assert err == b"", "no traceback, no message"

    def test_interrupt_exits_quietly(self, capsys, monkeypatch):
        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(picard, "verify_rootsnum", interrupt)
        code = main(["verify-rootsnum", "-g", "2", "--stabilizers", "1"])
        captured = capsys.readouterr()
        assert code == 130
        assert captured.err == "tc: interrupted\n"
        assert captured.out == ""

    def test_interrupt_during_output_exits_quietly(self, capsys, monkeypatch):
        # A Ctrl-C while a long --list is written: what was written stays.
        def interrupted_emit(payload, fmt):
            sys.stdout.write('{"count":')
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_emit", interrupted_emit)
        code = main(["enumerate", "-g", "2", "--list"])
        captured = capsys.readouterr()
        assert code == 130
        assert captured.err == "tc: interrupted\n"
        assert captured.out == '{"count":'

    @pytest.mark.skipif(
        not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children")
        or (os.cpu_count() or 1) < 2,
        reason="reads child processes and signal masks from /proc; needs 2 CPUs",
    )
    def test_interrupt_under_jobs_exits_quietly(self):
        # Ctrl-C signals the whole process group, workers included.  It is
        # sent once both workers run and tc catches SIGINT again, well
        # inside the genus-3 sweep, which runs for about a minute.
        argv = ["verify-rootsnum", "-g", "3", "--jobs", "2"]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.Popen(
            [sys.executable, "-m", "twistcount.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            start_new_session=True,
        )
        deadline = time.monotonic() + 60
        while _child_count(proc.pid) < 2 or _ignores_sigint(proc.pid):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        os.killpg(proc.pid, signal.SIGINT)
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 130
        assert (out, err) == (b"", b"tc: interrupted\n")

    def test_determinism(self, capsys, loop_path):
        outputs = set()
        for _ in range(3):
            _, out = run_cli(capsys, "orbits", loop_path, "-r", "2", "--involution")
            outputs.add(out)
        assert len(outputs) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("enumerate", "-g", "2", "--stabilizers", "1,x"),
            ("roots", "{loop}", "-r", "2", "--bundle", "omega:k=x"),
            ("roots", "{loop}", "-r", "2", "--bundle", "omega:k=1,h=a:1"),
            ("roots", "{loop}", "-r", "2", "--bundle-file", "{missing}"),
            ("roots", "{loop}", "-r", "2", "--bundle-file", "{garbled}"),
            ("roots", "{loop}", "-r", "2", "--bundle-file", "{boolean}"),
            ("lift", "{loop}", "-r", "2", "-t", "a"),
            ("genus", "{bool_genus}"),
            ("criterion", "{loop}", "-r", "0"),
            ("verify-cond", "-g", "2", "-r", "0", "-l", "2,2"),
            ("verify-rootsnum", "-g", "2", "--stabilizers", "1", "--random-bundles", "-1"),
            ("enumerate", "-g", "4", "-n", "3"),
            ("verify-rootsnum", "-g", "6", "--stabilizers", "1"),
            ("orbits", "{unpaired}", "-r", "3", "--involution"),
            ("lift", "{loop}", "-r", "0", "-t", "0"),
            ("verify-rootsnum", "-g", "2", "--stabilizers", "1", "--jobs", "0"),
            ("verify-rootsnum", "-g", "2", "--stabilizers", "1", "--jobs", "-3"),
            ("verify-rootsnum", "-g", "2", "--stabilizers", "1", "-r", ""),
            ("verify-rootsnum", "-g", "2", "--stabilizers", "1", "-r", "2,2"),
            ("ratio", "-r", "-3", "-d", "2"),
            ("ratio", "-r", "0", "-d", "2"),
            ("genus", "{not_utf8}"),
            ("roots", "{loop}", "-r", "2", "--bundle-file", "{not_utf8}"),
            ("genus", "{deep}"),
            ("genus", "-"),
            ("roots", "{loop}", "-r", "2", "--bundle-file", "{deep}"),
            ("genus", "{huge}"),
            ("genus", "<{huge}"),
            ("roots", "{loop}", "-r", "2", "--bundle-file", "{huge}"),
            ("nr", "-r", "2305843009213693951"),
            ("verify-cond", "-g", "2", "-r", "3", "-l", "1"),
            ("orbits", "{loop}", "-r", "2305843009213693951", "--max-domain", "1" + "0" * 40),
            ("roots", "{loop}", "-r", "2", "--max-domain", "-1", "--list"),
            ("orbits", "{loop}", "-r", "2", "--max-domain", "-1"),
        ],
    )
    def test_malformed_input_is_one(self, capsys, monkeypatch, tmp_path, loop_path, argv):
        # stdin holds DEEP, or the file named by an argument "<path",
        # which is passed on as "-".
        monkeypatch.setattr("sys.stdin", io.StringIO(DEEP))
        files = {
            "loop": loop_path,
            "unpaired": tmp_path / "unpaired.json",
            "missing": str(tmp_path / "missing.json"),
            "garbled": tmp_path / "garbled.json",
            "boolean": tmp_path / "boolean.json",
            "bool_genus": tmp_path / "bool_genus.json",
            "not_utf8": tmp_path / "not_utf8.json",
            "deep": tmp_path / "deep.json",
            "huge": tmp_path / "huge.json",
        }
        files["not_utf8"].write_bytes(NOT_UTF8)
        files["deep"].write_text(DEEP)
        files["huge"].write_text(HUGE)
        files["garbled"].write_text('{"int_part": [0],')
        files["boolean"].write_text('{"int_part": [true], "mult": [0]}')
        files["bool_genus"].write_text('{"vertices": [{"genus": true}], "edges": []}')
        # The involution sends some cube roots of omega outside the root set.
        files["unpaired"].write_text(
            '{"vertices":[{"genus":0},{"genus":0,"legs":[1,2]}],"edges":'
            '[{"tail":0,"head":0,"stabilizer":1},{"tail":0,"head":1,"stabilizer":3}]}'
        )
        argv = [arg.format(**files) for arg in argv]
        for i, arg in enumerate(argv):
            if arg.startswith("<"):
                monkeypatch.setattr("sys.stdin", io.StringIO(open(arg[1:]).read()))
                argv[i] = "-"
        # A refusal comes at once: a 2^61 - 1 order once went to trial
        # division before the cap on its r discrete roots.
        started = time.monotonic()
        code = main(argv)
        assert time.monotonic() - started < 2
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("tc: error: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize(
        "content, err",
        [
            (NOT_UTF8, "byte 0: not UTF-8 text"),
            (DEEP.encode(), "arrays or objects nested too deeply"),
            (HUGE.encode(), "an integer has more than 4300 digits"),
        ],
        ids=["not_utf8", "deep", "huge"],
    )
    def test_unreadable_json_names_file(self, capsys, tmp_path, loop_path, content, err):
        path = tmp_path / "input.json"
        path.write_bytes(content)
        for argv in (["genus", str(path)], ["roots", loop_path, "-r", "2", "--bundle-file", str(path)]):
            assert main(argv) == 1
            assert capsys.readouterr().err == f"tc: error: {path}: {err}\n"

    @pytest.mark.parametrize("fmt", ["json", "tsv"])
    def test_huge_counts_written_in_full(self, capsys, tmp_path, fmt):
        # 2**20000 has 6,021 digits, past the int-to-str digit limit, which
        # is back in place for the input afterwards.  Decimal reads digit
        # strings of any length.
        path = tmp_path / "genus10000.json"
        path.write_text('{"vertices":[{"genus":10000}],"edges":[]}')
        limit = sys.get_int_max_str_digits()
        assert main(["torsion", str(path), "-r", "2", "--format", fmt]) == 0
        assert sys.get_int_max_str_digits() == limit
        captured = capsys.readouterr()
        assert captured.err == ""
        if fmt == "json":
            assert captured.out.startswith('{"torsion_count":') and captured.out.endswith("}\n")
            digits = captured.out[len('{"torsion_count":') : -2]
        else:
            head, digits = captured.out.splitlines()
            assert head == "torsion_count"
        assert len(digits) == 6021
        assert Decimal(digits) == 2**20000

    @pytest.mark.parametrize(
        "command, stabilizer, what",
        [("orbits", 1, "root classes"), ("roots", 10**6, "discrete roots")],
    )
    def test_huge_refusal_is_one_line(self, capsys, tmp_path, command, stabilizer, what):
        # 720 loops and r = 10^6 give 10^4320 root classes (orbits) or
        # discrete roots (roots --list), past the int-to-str digit limit:
        # the refusal bounds the count by a power of two instead.
        path = tmp_path / "loops.json"
        loop = {"tail": 0, "head": 0, "stabilizer": stabilizer}
        path.write_text(json.dumps({"vertices": [{"genus": 0}], "edges": [loop] * 720}))
        argv = [command, str(path), "-r", "1000000", "--bundle", "omega:k=500000"]
        code = main(argv + (["--list"] if command == "roots" else []))
        captured = capsys.readouterr()
        if command == "roots":
            refused = "exceed the cap 1000000"
        else:
            refused = "make more than 1000000 orbits"
        err = f"tc: error: at least 2^14350 {what} {refused}\n"
        assert (code, captured.out, captured.err) == (1, "", err)

    def test_refusal_on_many_loops_runs_in_linear_memory(self, tmp_path):
        # A loop's column of the boundary map is zero and stays out of the
        # Smith reduction, so no edges-squared transform is built: with the
        # transform, 2,000 loops peaked at 31 MiB.
        peaks = _loop_refusal_peaks(
            tmp_path, 1, ["-r", "2"], " root classes make more than 1000000 orbits\n"
        )
        assert peaks[0] < 4 * 2**20, peaks
        assert peaks[1] < 2.5 * peaks[0], peaks

    def test_orbit_refusal_on_many_loops_runs_in_linear_memory(self, tmp_path):
        # A loop's quotient coordinate is its own gluing, so only the other
        # edges are reduced: with every loop in the reduction, 2,000 loops
        # peaked at 31 MiB and 4,000 at 124 MiB.
        peaks = _loop_refusal_peaks(
            tmp_path,
            3,
            ["-r", "2", "--bundle", "omega:k=0"],
            " orbits exceed the cap 1000000\n",
        )
        assert peaks[0] < 4 * 2**20, peaks
        assert peaks[1] < 2.5 * peaks[0], peaks

    @pytest.mark.parametrize(
        "orders, err",
        [("2,2", "tc: error: repeated orders in [2, 2]\n"), ("0", "tc: error: order 0 < 1\n")],
    )
    def test_orders_checked_before_enumeration(self, capsys, monkeypatch, orders, err):
        # At genus 4 the family takes seconds to build; bad orders are
        # refused before any of it.
        def refuse(*args, **kwargs):
            raise AssertionError("the family was enumerated")

        monkeypatch.setattr(graphs, "enumerate_stable_graphs", refuse)
        code = main(["verify-rootsnum", "-g", "4", "--stabilizers", "1,2", "-r", orders])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (1, "", err)

    def test_verify_rootsnum_refuses_a_screened_order_off_the_lemma(self, capsys, monkeypatch):
        # A screened order whose kernel is not maximal contradicts the flow
        # lemma: the sweep stops with one error line, not a traceback.
        monkeypatch.setattr(picard, "_kernel_size", lambda hs, mods, r: 1)
        code = main(["verify-rootsnum", "-g", "2", "--stabilizers", "1,2", "-r", "2"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err.startswith("tc: error: order 2 passes the stabilizer test")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

    def test_max_domain_caps_list_only(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(
            '{"vertices":[{"genus":0,"legs":[1,2]}],'
            '"edges":[{"tail":0,"head":0,"stabilizer":5},{"tail":0,"head":0,"stabilizer":5}]}'
        )
        bundle = tmp_path / "trivial.json"
        bundle.write_text('{"int_part": [0], "mult": [0, 0]}')
        argv = ["roots", str(path), "-r", "5", "--bundle-file", str(bundle), "--max-domain", "3"]
        # 25 discrete roots: the count is not capped, the list is.
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert json.loads(out) == {"count": 5**4}
        code = main([*argv, "--list"])
        assert code == 1
        assert capsys.readouterr().err.startswith("tc: error: ")


# Placeholders that _mutated_text replaces with a 4,301-digit literal and
# with JSON nested past the parser's recursion limit.
_HUGE_MARK = "@huge@"
_DEEP_MARK = "@deep@"


@st.composite
def _graph_value(draw):
    """Connected graph JSON: up to 3 vertices on a path, and up to 2 more
    edges, each with a stabilizer of at most 6."""
    n = draw(st.integers(1, 3))
    vertex = st.integers(0, n - 1)
    marks = iter(range(1, 10))
    vertices = []
    for _ in range(n):
        legs = [next(marks) for _ in range(draw(st.integers(0, 2)))]
        vertices.append({"genus": draw(st.integers(0, 2)), "legs": legs})
    ends = [(v - 1, v) for v in range(1, n)]
    ends += [(draw(vertex), draw(vertex)) for _ in range(draw(st.integers(0, 2)))]
    edges = [{"tail": t, "head": h, "stabilizer": draw(st.integers(1, 6))} for t, h in ends]
    return {"vertices": vertices, "edges": edges}


def _bundle_value(graph, draw):
    def entries(n):
        return draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))

    return {"int_part": entries(len(graph["vertices"])), "mult": entries(len(graph["edges"]))}


def _slots(value):
    """Every (container, key) pair inside a JSON value."""
    if isinstance(value, dict):
        keys = list(value)
    elif isinstance(value, list):
        keys = range(len(value))
    else:
        return
    for key in keys:
        yield value, key
        yield from _slots(value[key])


# What a mutation puts in place of a field; None drops it.
_MUTATIONS = {
    "none": None,
    "drop": None,
    "retype": st.sampled_from([None, True, "2", "", [], {}]),
    "negative": st.integers(-5, -1),
    "non-integer": st.sampled_from([2.5, -0.5, 1e300]),
    "huge": st.just(_HUGE_MARK),
    "deep": st.just(_DEEP_MARK),
}


def _mutated_text(value, draw) -> bytes:
    """value as JSON with at most one field dropped or replaced, and
    maybe with bytes that are not UTF-8 inserted."""
    doc = {"top": value}
    mutation = draw(st.sampled_from(sorted(_MUTATIONS)))
    if mutation != "none":
        container, key = draw(st.sampled_from(list(_slots(doc))))
        if _MUTATIONS[mutation] is not None:
            container[key] = draw(_MUTATIONS[mutation])
        elif container is not doc:
            del container[key]
    text = json.dumps(doc["top"])
    text = text.replace(json.dumps(_HUGE_MARK), "7" * 4301)
    text = text.replace(json.dumps(_DEEP_MARK), "[" * 5000 + "]" * 5000)
    data = text.encode()
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(data)))
        bad = draw(st.sampled_from([b"\xff", b"\xc3(", b"\x80", b"\xed\xa0\x80"]))
        data = data[:at] + bad + data[at:]
    return data


_COMMANDS = [
    ["genus"],
    ["classify", "-e", "0"],
    ["torsion", "-r", "2"],
    ["roots", "-r", "2"],
    ["criterion", "-r", "2"],
    ["roots", "-r", "2", "--bundle-file"],
]


# Option values for argument mutations: small valid ones, zero, negative,
# huge (the last past the int-from-str digit limit) and non-integer text.
_ARG_VALUES = st.one_of(
    st.integers(1, 7).map(str),
    st.sampled_from(
        ["0", "-1", "-7", str(2**61 - 1), str(10**30), "1" + "0" * 4000, "7" * 4301]
        + ["2.5", "x", "", " ", "1e3", "0x3", "--"]
    ),
)
_CSV_VALUES = st.one_of(
    st.lists(_ARG_VALUES, max_size=3).map(",".join),
    st.sampled_from(["", ",", ",,", "1,,2", "2,", "a,b", "1;2", "1, 2"]),
)
# Argument lists with placeholders for a value ("V"), a comma-separated
# list ("C") and the graph file ("G"); families stay at genus 2.
_ARG_COMMANDS = [
    ["classify", "G", "-e", "V"],
    ["torsion", "G", "-r", "V"],
    ["roots", "G", "-r", "V", "--max-domain", "V", "--list"],
    ["criterion", "G", "-r", "V"],
    ["lift", "G", "-r", "V", "-t", "C"],
    ["orbits", "G", "-r", "V", "--max-domain", "V"],
    ["enumerate", "-g", "2", "--stabilizers", "C"],
    ["verify-rootsnum", "-g", "2", "--stabilizers", "C", "-r", "C", "--random-bundles", "1"],
    ["verify-cond", "-g", "2", "-r", "V", "-l", "C", "-k", "V"],
    ["nr", "-r", "V"],
    ["ratio", "-r", "V", "-d", "C"],
]


def _run_main(argv):
    """(status, stdout, stderr) of main(argv), usage errors included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _assert_ends_cleanly(code, out, err):
    """A result, one "tc: error:" line or a usage error; an exception
    escaping main would be a traceback."""
    event(f"exit status {code}")
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 0:
        # Decimal reads counts past the int-to-str digit limit.
        json.loads(out, parse_int=Decimal)
    elif code == 1:
        assert out == ""
        assert err.startswith("tc: error: ")
        assert err.count("\n") == 1


class TestNoTraceback:
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_mutated_input_ends_cleanly(self, tmp_path_factory, data):
        command = data.draw(st.sampled_from(_COMMANDS))
        graph = data.draw(_graph_value())
        directory = tmp_path_factory.getbasetemp()
        graph_path = directory / "graph.json"
        argv = [command[0], str(graph_path), *command[1:]]
        if command[-1] == "--bundle-file":
            graph_path.write_text(json.dumps(graph))
            bundle_path = directory / "bundle.json"
            bundle_path.write_bytes(_mutated_text(_bundle_value(graph, data.draw), data.draw))
            argv.append(str(bundle_path))
        else:
            graph_path.write_bytes(_mutated_text(graph, data.draw))
        _assert_ends_cleanly(*_run_main(argv))

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_mutated_arguments_end_cleanly(self, tmp_path_factory, data):
        # Each placeholder gets a drawn value; sometimes one option and its
        # value are dropped as well.
        graph_path = tmp_path_factory.getbasetemp() / "args_graph.json"
        graph_path.write_text(data.draw(st.sampled_from([LOOP, LOOP4, BRIDGE, THETA2])))
        template = list(data.draw(st.sampled_from(_ARG_COMMANDS)))
        options = [i for i, a in enumerate(template) if a.startswith("-") and i + 1 < len(template)]
        if data.draw(st.integers(0, 4)) == 0:
            i = data.draw(st.sampled_from(options))
            del template[i : i + 2]
        values = {"V": _ARG_VALUES, "C": _CSV_VALUES, "G": st.just(str(graph_path))}
        argv = [data.draw(values[a]) if a in values else a for a in template]
        event(argv[0])
        _assert_ends_cleanly(*_run_main(argv))
