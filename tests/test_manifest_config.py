import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sceneid import manifest as manifest_mod
from sceneid.audio import AudioBuffer
from sceneid.config import ConfigError, PipelineConfig, parse_sbr_token
from sceneid.manifest import CorpusManifest, ManifestEntry, ManifestError
from sceneid.pipeline import PipelineStageError, features_for_buffers

CLIP = AudioBuffer(0.1 * np.random.default_rng(7).standard_normal(16000), 16000)
FIELDS = dataclasses.fields(PipelineConfig)
ODD_TEXT = ["", "x", "-1", "0", "1", "nan", "inf", "-inf", "1e308", "-1e308", "none", "true"]


def value_text(field):
    """Text for one `--set` value: typed values near the default, any float,
    and text of the wrong kind. Integers stay at most about twice their
    default, so no drawn size allocates much memory."""
    default = field.default
    if isinstance(default, bool):
        typed = st.sampled_from(["true", "false", "yes", "no", "1", "0", "maybe"])
    elif isinstance(default, int):
        typed = st.integers(-2, 2 * default + 2).map(str)
    elif isinstance(default, float) or default is None:
        near = st.floats(0.0, 2.0 * (default or 8000.0))
        typed = st.one_of(near, st.floats()).map(repr)
    else:
        typed = st.sampled_from(["hann", "hamming", "rect", "bogus", "HANN"])
    return st.one_of(typed, st.sampled_from(ODD_TEXT))


@st.composite
def overrides(draw):
    fields = draw(st.lists(st.sampled_from(FIELDS), max_size=4, unique_by=lambda f: f.name))
    noise_floor = draw(st.sampled_from(["false", "true"]))
    return [f"noise_floor={noise_floor}"] + [f"{f.name}={draw(value_text(f))}" for f in fields]


class TestManifest:
    def test_roundtrip(self, tmp_path):
        entries = [
            ManifestEntry(path="a.wav", label="bus", condition="clean", fold=0),
            ManifestEntry(path="b.wav", label="park", speaker_id="s1", fold=1,
                          seed=42, gain=0.5),
        ]
        path = tmp_path / "m.jsonl"
        CorpusManifest(entries, tmp_path).save(path)
        back = CorpusManifest.load(path)
        assert back.entries == entries
        assert back.base_dir == tmp_path

    def test_resolve_relative_and_absolute(self, tmp_path):
        m = CorpusManifest([ManifestEntry(path="x/a.wav", label="l")], tmp_path)
        assert m.resolve(m.entries[0]) == tmp_path / "x" / "a.wav"
        absolute = ManifestEntry(path=str(tmp_path / "b.wav"), label="l")
        assert CorpusManifest([absolute], "/elsewhere").resolve(absolute) == tmp_path / "b.wav"

    def test_duplicate_paths_rejected(self):
        m = CorpusManifest([ManifestEntry("a.wav", "x"), ManifestEntry("a.wav", "y")])
        with pytest.raises(ManifestError, match="duplicate"):
            m.validate()

    def test_partial_folds_rejected(self):
        m = CorpusManifest(
            [ManifestEntry("a.wav", "x", fold=0), ManifestEntry("b.wav", "x")]
        )
        with pytest.raises(ManifestError, match="fold"):
            m.validate()

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"path": "a.wav", "label": "x", "wat": 1}\n')
        with pytest.raises(ManifestError, match="unknown"):
            CorpusManifest.load(path)

    def test_missing_required_field(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"path": "a.wav"}\n')
        with pytest.raises(ManifestError, match="label"):
            CorpusManifest.load(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ManifestError, match="not found"):
            CorpusManifest.load(tmp_path / "none.jsonl")

    def test_directory_rejected_naming_it(self, tmp_path):
        with pytest.raises(ManifestError, match="cannot read manifest") as err:
            CorpusManifest.load(tmp_path)
        assert str(tmp_path) in str(err.value)

    @pytest.mark.parametrize(
        "line, message",
        [
            (b"5", "must be a JSON object"),
            (b'["a.wav", "x"]', "must be a JSON object"),
            (b'"a.wav"', "must be a JSON object"),
            (b"null", "must be a JSON object"),
            (b'{"path": "b.wav", "label": "x"}\xff\xfe', "not UTF-8"),
            (b'{"path": 5, "label": "x"}', "'path' must be a string"),
            (b'{"path": "b.wav", "label": 5}', "'label' must be a string"),
            (b'{"path": "b.wav", "label": null}', "'label' must be a string"),
            (b'{"path": "b.wav", "label": "x", "condition": null}', "'condition' must be"),
            (b'{"path": "b.wav", "label": "x", "condition": 0}', "'condition' must be"),
            (b'{"path": "b.wav", "label": "x", "speaker_id": 3}', "'speaker_id' must be"),
            (b'{"path": "b.wav", "label": "x", "fold": 1.0}', "'fold' must be an integer"),
            (b'{"path": "b.wav", "label": "x", "fold": true}', "'fold' must be an integer"),
            (b'{"path": "b.wav", "label": "x", "seed": "7"}', "'seed' must be an integer"),
            (b'{"path": "b.wav", "label": "x", "seed": false}', "'seed' must be an integer"),
            (b'{"path": "b.wav", "label": "x", "gain": "0.5"}', "'gain' must be a number"),
            (b'{"path": "b.wav", "label": "x", "gain": true}', "'gain' must be a number"),
        ],
        ids=["int", "list", "string", "null", "not-utf8", "path-int", "label-int",
             "label-null", "condition-null", "condition-int", "speaker-int", "fold-float",
             "fold-bool", "seed-string", "seed-bool", "gain-string", "gain-bool"],
    )
    def test_malformed_record_rejected_naming_file_and_line(self, tmp_path, line, message):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b'{"path": "a.wav", "label": "x"}\n\n' + line + b"\n")
        with pytest.raises(ManifestError, match=message) as err:
            CorpusManifest.load(path)
        assert str(err.value).startswith(f"{path}:3: ")

    def test_optional_fields_accept_null_and_every_field_is_typed(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(
            '{"path": "a.wav", "label": "x", "speaker_id": null, "fold": null,'
            ' "seed": null, "gain": null}\n'
            '{"path": "b.wav", "label": "y", "speaker_id": "s1", "condition": "sbr+5dB",'
            ' "fold": 0, "seed": 3, "gain": 2}\n'
        )
        assert CorpusManifest.load(path).entries == [
            ManifestEntry("a.wav", "x"),
            ManifestEntry("b.wav", "y", "s1", "sbr+5dB", 0, 3, 2),
        ]
        fields = {f.name for f in dataclasses.fields(ManifestEntry)}
        assert set(manifest_mod._FIELD_TYPES) == fields

    def test_filter(self):
        m = CorpusManifest(
            [
                ManifestEntry("a.wav", "bus", fold=0),
                ManifestEntry("b.wav", "park", fold=1),
                ManifestEntry("c.wav", "bus", fold=1),
            ]
        )
        assert len(m.filter(lambda e: e.fold == 1)) == 2


class TestConfig:
    def test_paper_defaults(self):
        cfg = PipelineConfig()
        assert cfg.frame_ms == 40.0
        assert cfg.overlap == 0.5
        assert cfg.n_mels == 40
        assert cfg.n_ceps == 21
        assert (cfg.sdc_m, cfg.sdc_k, cfg.sdc_n, cfg.sdc_p) == (2, 2, 11, 3)
        assert cfg.ubm_components == 256
        assert cfg.tv_rank == 150
        assert cfg.alpha == 0.7
        assert cfg.sample_rate == 16000

    def test_snapshot_roundtrip_byte_identical(self):
        cfg = PipelineConfig(noise_floor=True, seed=99)
        text = cfg.snapshot_text()
        loaded = PipelineConfig.from_bytes(text.encode("utf-8"))
        assert loaded == cfg
        assert loaded.snapshot_text() == text

    def test_overrides(self):
        cfg = PipelineConfig().apply_overrides(
            ["ubm_components=32", "alpha=0.5", "noise_floor=true"]
        )
        assert cfg.ubm_components == 32
        assert cfg.alpha == 0.5
        assert cfg.noise_floor is True

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            PipelineConfig().apply_overrides(["nope=1"])

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig().apply_overrides(["ubm_components=many"])
        with pytest.raises(ConfigError):
            PipelineConfig().apply_overrides(["noise_floor=maybe"])

    def test_file_with_comments(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# comment\nubm_components = 64\n\nalpha = 0.3 # inline\n")
        cfg = PipelineConfig.from_bytes(path.read_bytes())
        assert cfg.ubm_components == 64
        assert cfg.alpha == 0.3

    def test_sbr_tokens(self):
        assert parse_sbr_token("clean") is None
        assert parse_sbr_token("-5") == -5.0
        assert parse_sbr_token(" 10 ") == 10.0
        with pytest.raises(ConfigError):
            parse_sbr_token("loud")

    def test_feature_and_spp_views(self):
        cfg = PipelineConfig()
        fc = cfg.to_feature_config()
        assert fc.frame.frame_len_ms == 40.0
        assert fc.sdc.n == 11
        spp = cfg.to_spp_params()
        assert spp.psd_smooth == 0.8

    @settings(deadline=None, max_examples=200)
    @given(pairs=overrides())
    def test_any_overrides_load_round_trip_and_featurize_finite(self, pairs):
        try:
            cfg = PipelineConfig().apply_overrides(pairs)
        except ConfigError:
            return
        text = cfg.snapshot_text()
        back = PipelineConfig.from_bytes(text.encode("utf-8"))
        assert back == cfg
        assert back.snapshot_text() == text
        try:
            (feats,) = features_for_buffers([("clip", CLIP)], cfg)
        except PipelineStageError:
            return
        assert np.isfinite(feats.rows).all()
