"""Tests for dataset and graph I/O."""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph import BipartiteTemporalMultigraph, EdgeList
from repro.graph.io import (
    IngestStats,
    btm_from_ndjson,
    btms_from_ndjson,
    load_btm_npz,
    load_edgelist_npz,
    read_comments_ndjson,
    save_btm_npz,
    save_edgelist_npz,
    write_comments_ndjson,
)


class TestNdjson:
    def test_write_read_roundtrip(self, tmp_path):
        path = tmp_path / "c.ndjson"
        records = [
            {"author": "a", "link_id": "p1", "created_utc": 5},
            {"author": "b", "link_id": "p2", "created_utc": 9},
        ]
        assert write_comments_ndjson(path, records) == 2
        assert list(read_comments_ndjson(path)) == records

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "c.ndjson"
        path.write_text('{"a": 1}\n\n{"a": 2}\n')
        assert len(list(read_comments_ndjson(path))) == 2

    def test_malformed_line_reports_location(self, tmp_path):
        path = tmp_path / "c.ndjson"
        path.write_text('{"a": 1}\nnot json\n')
        with pytest.raises(ValueError, match=":2"):
            list(read_comments_ndjson(path))

    def test_btm_from_ndjson(self, tmp_path):
        path = tmp_path / "c.ndjson"
        write_comments_ndjson(
            path,
            [
                {"author": "a", "link_id": "p", "created_utc": 1},
                {"author": "b", "link_id": "p", "created_utc": 2},
            ],
        )
        btm = btm_from_ndjson(path)
        assert btm.n_users == 2 and btm.n_pages == 1

    def test_pushshift_dict_loader_compatibility(self, tmp_path):
        from repro.datagen.records import CommentRecord

        rec = CommentRecord("a", "t3_x", 7, "r/test", "gpt2")
        path = tmp_path / "c.ndjson"
        write_comments_ndjson(path, [rec.to_pushshift_dict()])
        btm = btm_from_ndjson(path)
        assert btm.user_name(0) == "a"


class TestLenientIngestion:
    GOOD = '{"author": "a", "link_id": "p", "created_utc": 1}'
    ALSO_GOOD = '{"author": "b", "link_id": "p", "created_utc": 2}'

    def test_invalid_errors_mode_rejected(self, tmp_path):
        path = tmp_path / "c.ndjson"
        path.write_text(self.GOOD + "\n")
        with pytest.raises(ValueError, match="errors must be"):
            list(read_comments_ndjson(path, errors="ignore"))

    def test_skip_mode_drops_and_counts(self, tmp_path):
        path = tmp_path / "c.ndjson"
        path.write_text(f"{self.GOOD}\nnot json\n\n{self.ALSO_GOOD}\n{{broken\n")
        stats = IngestStats()
        records = list(read_comments_ndjson(path, errors="skip", stats=stats))
        assert len(records) == 2
        assert stats.total_lines == 4  # blank line not counted
        assert stats.malformed == 2
        assert stats.kept == 2
        assert stats.quarantined_to is None

    def test_skip_mode_quarantines_raw_lines(self, tmp_path):
        path = tmp_path / "c.ndjson"
        path.write_text(f"{self.GOOD}\nnot json\n{{broken\n")
        sidecar = tmp_path / "rejects.ndjson"
        stats = IngestStats()
        list(
            read_comments_ndjson(
                path, errors="skip", quarantine=sidecar, stats=stats
            )
        )
        assert stats.quarantined_to == str(sidecar)
        assert sidecar.read_text().splitlines() == ["not json", "{broken"]

    def test_clean_read_leaves_no_sidecar(self, tmp_path):
        path = tmp_path / "c.ndjson"
        path.write_text(self.GOOD + "\n")
        sidecar = tmp_path / "rejects.ndjson"
        list(read_comments_ndjson(path, errors="skip", quarantine=sidecar))
        assert not sidecar.exists()  # opened lazily, only on first reject

    def test_btm_raise_mode_aborts_on_missing_field(self, tmp_path):
        path = tmp_path / "c.ndjson"
        path.write_text(f'{self.GOOD}\n{{"author": "x", "created_utc": 3}}\n')
        with pytest.raises(ValueError, match="missing/invalid field"):
            btm_from_ndjson(path)

    def test_btm_skip_mode_handles_both_reject_kinds(self, tmp_path):
        """Parse-level and field-level rejects share one count and sidecar."""
        path = tmp_path / "c.ndjson"
        path.write_text(
            "\n".join(
                [
                    self.GOOD,
                    "not json",  # parse-level reject
                    '{"author": "x", "created_utc": 3}',  # no link_id
                    '{"author": "y", "link_id": "p", "created_utc": "noon"}',
                    self.ALSO_GOOD,
                ]
            )
            + "\n"
        )
        sidecar = tmp_path / "rejects.ndjson"
        stats = IngestStats()
        btm = btm_from_ndjson(
            path, errors="skip", quarantine=sidecar, stats=stats
        )
        assert btm.n_comments == 2
        assert btm.n_users == 2
        assert stats.total_lines == 5
        assert stats.malformed == 3
        assert stats.kept == 2
        assert stats.quarantined_to == str(sidecar)
        rejects = sidecar.read_text().splitlines()
        assert len(rejects) == 3
        assert rejects[0] == "not json"
        assert '"author":"x"' in rejects[1].replace(" ", "")

    def test_btm_skip_mode_without_stats_or_quarantine(self, tmp_path):
        path = tmp_path / "c.ndjson"
        path.write_text(f"{self.GOOD}\nnot json\n{self.ALSO_GOOD}\n")
        btm = btm_from_ndjson(path, errors="skip")
        assert btm.n_comments == 2

    def test_btm_skip_matches_clean_load(self, tmp_path):
        """Corruption must cost exactly the corrupt records, nothing else."""
        clean = tmp_path / "clean.ndjson"
        dirty = tmp_path / "dirty.ndjson"
        rows = [
            {"author": f"u{i % 7}", "link_id": f"p{i % 5}", "created_utc": i}
            for i in range(40)
        ]
        write_comments_ndjson(clean, rows)
        with open(dirty, "w", encoding="utf-8") as fh:
            for i, row in enumerate(rows):
                import json

                fh.write(json.dumps(row) + "\n")
                if i % 10 == 3:
                    fh.write("garbage line\n")
        ref = btm_from_ndjson(clean)
        got = btm_from_ndjson(dirty, errors="skip")
        assert got.n_comments == ref.n_comments
        assert got.users.tolist() == ref.users.tolist()
        assert got.times.tolist() == ref.times.tolist()


class TestFieldRules:
    """One rule for every loader: no author or no page is malformed."""

    def test_null_or_empty_page_makes_no_phantom_page(self, tmp_path):
        path = tmp_path / "c.ndjson"
        write_comments_ndjson(
            path,
            [
                {"author": "a", "link_id": None, "created_utc": 1},
                {"author": "b", "link_id": None, "created_utc": 2},
                {"author": "c", "link_id": "", "created_utc": 3},
                {"author": "d", "link_id": "", "created_utc": 4},
                {"author": "e", "link_id": "p", "created_utc": 5},
            ],
        )
        stats = IngestStats()
        btm = btm_from_ndjson(path, errors="skip", stats=stats)
        assert btm.n_comments == 1 and btm.page_names.key_of(0) == "p"
        assert stats.malformed == 4
        with pytest.raises(ValueError, match=r"c\.ndjson:1: .*missing/invalid field"):
            btm_from_ndjson(path)

    @pytest.mark.parametrize("author", [None, ""])
    def test_null_or_empty_author_is_malformed(self, tmp_path, author):
        path = tmp_path / "c.ndjson"
        write_comments_ndjson(
            path,
            [
                {"author": author, "link_id": "p", "created_utc": 1},
                {"author": "b", "link_id": "p", "created_utc": 2},
            ],
        )
        stats = IngestStats()
        btm = btm_from_ndjson(path, errors="skip", stats=stats)
        assert btm.n_comments == 1 and stats.malformed == 1
        btms = btms_from_ndjson(path, ["page"], errors="skip", stats=IngestStats())
        assert btms["page"].users.tolist() == btm.users.tolist()

    def test_integer_first_page_is_interned_as_string(self, tmp_path):
        path = tmp_path / "c.ndjson"
        write_comments_ndjson(
            path,
            [
                {"author": "a", "link_id": 7, "created_utc": 1},
                {"author": "b", "link_id": "t3_x", "created_utc": 2},
                {"author": "c", "link_id": "7", "created_utc": 3},
            ],
        )
        btm = btm_from_ndjson(path, errors="skip")
        assert [btm.page_names.key_of(p) for p in btm.pages.tolist()] == ["7", "t3_x", "7"]

    def test_read_accepts_lines(self):
        lines = ['{"author": "a"}\n', "\n", "not json\n"]
        stats = IngestStats()
        records = list(read_comments_ndjson(lines, errors="skip", stats=stats))
        assert records == [{"author": "a"}]
        assert stats.total_lines == 2 and stats.malformed == 1
        with pytest.raises(ValueError, match="<input>:3: malformed JSON"):
            list(read_comments_ndjson(lines))


class TestQuarantineFidelity:
    def test_field_reject_is_copied_byte_identical(self, tmp_path):
        bad = '{ "author": "zoë",  "link_id": "p", "created_utc": "noon" }'
        path = tmp_path / "c.ndjson"
        path.write_text(f"not json\n{bad}\n", encoding="utf-8")
        sidecar = tmp_path / "rejects.ndjson"
        btm_from_ndjson(path, errors="skip", quarantine=sidecar)
        assert sidecar.read_text(encoding="utf-8") == f"not json\n{bad}\n"

    def test_raise_mode_field_error_names_line(self, tmp_path):
        path = tmp_path / "c.ndjson"
        path.write_text(
            '{"author": "a", "link_id": "p", "created_utc": 1}\n\n'
            '{"author": "b", "link_id": "p"}\n',
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match=r"c\.ndjson:3: record missing/invalid field"):
            btm_from_ndjson(path)


_GOOD = st.builds(
    lambda a, p, t, text: json.dumps(
        {"author": a, "link_id": p, "created_utc": t, "text": text},
        ensure_ascii=False,
    ),
    st.sampled_from(["a", "b", "zoë", "李"]),
    st.sampled_from(["p", "q", "t3_ü"]),
    st.integers(0, 10_000),
    st.sampled_from(["", "héllo wörld"]),
)
_BAD = st.sampled_from(
    [
        "not json",
        "{broken",
        "   ",
        '{"link_id": "p", "created_utc": 1}',
        '{"author": "a", "created_utc": 1}',
        '{"author": "a", "link_id": null, "created_utc": 1}',
        '{"author": "a", "link_id": "", "created_utc": 1}',
        '{"author": null, "link_id": "p", "created_utc": 1}',
        '{"author": "a", "link_id": "p", "created_utc": "noon"}',
        '{"author": "a", "link_id": "p", "created_utc": null}',
        '{"author": "a", "link_id": "p"}',
        '{ "author": "ñandú",  "link_id": "", "created_utc": 3 }',
        "[1, 2]",
    ]
)


class TestLoaderAgreement:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(lines=st.lists(st.one_of(_GOOD, _BAD), max_size=25))
    def test_every_loader_accepts_and_rejects_the_same(self, tmp_path, lines):
        from repro.serve.ingest import iter_ndjson_events

        path = tmp_path / "mix.ndjson"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        q1, q2 = tmp_path / "q1.ndjson", tmp_path / "q2.ndjson"
        for q in (q1, q2):
            q.unlink(missing_ok=True)
        legacy, layered, served = IngestStats(), IngestStats(), IngestStats()
        btm = btm_from_ndjson(path, errors="skip", quarantine=q1, stats=legacy)
        page = btms_from_ndjson(
            path, ["page"], errors="skip", quarantine=q2, stats=layered
        )["page"]
        with open(path, encoding="utf-8") as fh:
            events = list(iter_ndjson_events(fh, served))

        def triples(b):
            return [
                (b.user_names.key_of(u), b.page_names.key_of(p), t)
                for u, p, t in zip(b.users.tolist(), b.pages.tolist(), b.times.tolist())
            ]

        assert triples(btm) == triples(page) == events
        assert legacy.malformed == layered.malformed + layered.layer_skips["page"]
        assert served.malformed == legacy.malformed
        assert served.total_lines == legacy.total_lines == layered.total_lines
        assert (q1.read_bytes() if q1.exists() else b"") == (
            q2.read_bytes() if q2.exists() else b""
        )


class TestNpz:
    def test_btm_roundtrip_with_names(self, tmp_path, tiny_btm):
        path = tmp_path / "btm.npz"
        save_btm_npz(path, tiny_btm)
        loaded = load_btm_npz(path)
        assert loaded.n_comments == tiny_btm.n_comments
        assert loaded.user_name(0) == tiny_btm.user_name(0)
        assert loaded.times.tolist() == tiny_btm.times.tolist()

    def test_btm_roundtrip_without_names(self, tmp_path):
        btm = BipartiteTemporalMultigraph.from_comments([(0, 0, 5), (1, 0, 6)])
        path = tmp_path / "btm.npz"
        save_btm_npz(path, btm)
        loaded = load_btm_npz(path)
        assert loaded.user_names is None
        assert loaded.users.tolist() == [0, 1]

    def test_edgelist_roundtrip(self, tmp_path):
        el = EdgeList([0, 2], [1, 3], [5, 7])
        path = tmp_path / "el.npz"
        save_edgelist_npz(path, el)
        assert load_edgelist_npz(path).to_dict() == el.to_dict()
