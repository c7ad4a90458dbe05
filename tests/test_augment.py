import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_render_commands

from svkit import augment
from svkit.errors import ContractError, FormatError


def manifest(n=4, rate=16000):
    return augment.UtteranceManifest(
        [augment.Utterance(f"utt{k}", f"/data/utt{k}.wav", 3.0 + k, rate) for k in range(n)]
    )


class TestAssignCodec:
    def test_exact_half_for_all_n(self):
        for n in range(1, 51):
            plan = augment.assign_codec(manifest(n), 0.5, seed=n)
            flagged = sum(e.codec == "gsm" for e in plan.entries)
            assert flagged == int(np.floor(0.5 * n + 0.5))

    def test_zero_fraction(self):
        plan = augment.assign_codec(manifest(10), 0.0, seed=1)
        assert all(e.codec == "none" for e in plan.entries)

    def test_full_fraction(self):
        plan = augment.assign_codec(manifest(10), 1.0, seed=1)
        assert all(e.codec == "gsm" for e in plan.entries)

    def test_deterministic_per_seed(self):
        a = augment.assign_codec(manifest(20), 0.5, seed=9)
        b = augment.assign_codec(manifest(20), 0.5, seed=9)
        assert [e.codec for e in a.entries] == [e.codec for e in b.entries]
        c = augment.assign_codec(manifest(20), 0.5, seed=10)
        assert sum(e.codec == "gsm" for e in c.entries) == 10

    def test_entries_follow_manifest_order(self):
        man = manifest(7)
        plan = augment.assign_codec(man, 0.4, seed=2)
        assert [e.utt_id for e in plan.entries] == man.ids

    def test_bad_fraction(self):
        with pytest.raises(ContractError):
            augment.assign_codec(manifest(3), 1.5, seed=0)


class TestRateChainAndSpeed:
    def test_chain_recorded(self):
        plan = augment.assign_codec(manifest(5), 0.5, seed=0)
        for mode in augment.CHAINS:
            out = augment.plan_rate_chain(plan, mode)
            assert all(e.chain == mode for e in out.entries)

    def test_unknown_mode(self):
        plan = augment.assign_codec(manifest(2), 0.0, seed=0)
        with pytest.raises(ContractError):
            augment.plan_rate_chain(plan, "down4k")

    def test_speed_off_all_unity(self):
        plan = augment.assign_speed(augment.assign_codec(manifest(6), 0.5, 0), False, seed=5)
        assert all(e.speed == 1.0 for e in plan.entries)

    def test_speed_reproducible(self):
        base = augment.assign_codec(manifest(30), 0.0, 0)
        a = augment.assign_speed(base, True, seed=11)
        b = augment.assign_speed(base, True, seed=11)
        assert [e.speed for e in a.entries] == [e.speed for e in b.entries]
        assert set(e.speed for e in a.entries) <= set(augment.SPEED_FACTORS)

    def test_speed_histogram_roughly_uniform(self):
        man = manifest(3000)
        plan = augment.assign_speed(augment.assign_codec(man, 0.0, 0), True, seed=42)
        speeds = np.array([e.speed for e in plan.entries])
        for f in augment.SPEED_FACTORS:
            frac = np.mean(speeds == f)
            assert abs(frac - 1 / 3) < 0.03


class TestPlanInvariants:
    def test_id_mismatch_rejected(self):
        man = manifest(3)
        entries = [augment.PlanEntry("wrong")] + [augment.PlanEntry(i) for i in man.ids[1:]]
        with pytest.raises(ContractError):
            augment.AugmentPlan(man, entries)

    def test_missing_entry_rejected(self):
        man = manifest(3)
        with pytest.raises(ContractError):
            augment.AugmentPlan(man, [augment.PlanEntry(i) for i in man.ids[:2]])

    def test_manifest_duplicate_ids(self):
        with pytest.raises(ContractError):
            augment.UtteranceManifest(
                [augment.Utterance("a", "p", 1.0, 16000), augment.Utterance("a", "q", 2.0, 16000)]
            )


GOLDEN = {
    "down8k": [
        "sox /data/audio/utt1.wav -r 8000 -t gsm /out/utt1.gsm && "
        "sox /out/utt1.gsm -t wav -e signed -b 16 /out/utt1.wav",
        "sox '/data/audio/utt 2.wav' -r 8000 /out/utt2.wav",
    ],
    "down8k-up16k": [
        "sox /data/audio/utt1.wav -r 8000 -t gsm /out/utt1.gsm && "
        "sox /out/utt1.gsm -t wav -e signed -b 16 -r 16000 /out/utt1.wav",
        "sox '/data/audio/utt 2.wav' -r 8000 /out/utt2.8k.wav && "
        "sox /out/utt2.8k.wav -r 16000 /out/utt2.wav",
    ],
    "keep16k": [
        "cp /data/audio/utt1.wav /out/utt1.wav",
        "cp '/data/audio/utt 2.wav' /out/utt2.wav",
    ],
}


class TestCommandTemplates:
    def _manifest(self):
        return augment.UtteranceManifest(
            [
                augment.Utterance("utt1", "/data/audio/utt1.wav", 3.2, 16000),
                augment.Utterance("utt2", "/data/audio/utt 2.wav", 5.0, 16000),
            ]
        )

    def _plan(self, mode, codec_first):
        man = self._manifest()
        entries = [
            augment.PlanEntry("utt1", "gsm" if codec_first else "none", mode, 1.0),
            augment.PlanEntry("utt2", "none", mode, 1.0),
        ]
        return augment.AugmentPlan(man, entries)

    @pytest.mark.parametrize("mode", ["down8k", "down8k-up16k"])
    def test_codec_modes_match_golden(self, mode):
        plan = self._plan(mode, codec_first=True)
        assert augment.render_commands(plan, "/out") == GOLDEN[mode]

    def test_keep16k_matches_golden(self):
        plan = self._plan("keep16k", codec_first=False)
        assert augment.render_commands(plan, "/out") == GOLDEN["keep16k"]

    def test_codec_on_keep16k_rejected(self):
        plan = self._plan("keep16k", codec_first=True)
        with pytest.raises(ContractError, match="8 kHz"):
            augment.render_commands(plan, "/out")

    def test_speed_appends_effect(self):
        man = self._manifest()
        entries = [
            augment.PlanEntry("utt1", "gsm", "down8k", 0.9),
            augment.PlanEntry("utt2", "none", "keep16k", 1.1),
        ]
        got = augment.render_commands(augment.AugmentPlan(man, entries), "/out")
        assert got == [
            "sox /data/audio/utt1.wav -r 8000 -t gsm /out/utt1.gsm speed 0.9 && "
            "sox /out/utt1.gsm -t wav -e signed -b 16 /out/utt1.wav",
            "sox '/data/audio/utt 2.wav' /out/utt2.wav speed 1.1",
        ]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_equals_hand_written_templates(self, data):
        # every chain x codec x finite positive speed, with the characters
        # that shell quoting must survive in ids, paths and out_dir
        shell = st.text(st.sampled_from("ab '\"$ .\\"), min_size=1, max_size=6)
        ids = data.draw(st.lists(shell.filter(lambda i: i not in (".", "..")),
                                 min_size=1, max_size=4, unique=True))
        speeds = st.one_of(st.sampled_from([0.9, 1.0, 1.1, 2.5]),
                           st.floats(0, 1e300, exclude_min=True, allow_nan=False))
        utts, entries = [], []
        for utt_id in ids:
            utts.append(augment.Utterance(utt_id, data.draw(shell.map(lambda p: f"/d/{p}.wav")), 1.0, 16000))
            entries.append(augment.PlanEntry(utt_id, data.draw(st.sampled_from(["gsm", "none"])),
                                             data.draw(st.sampled_from(augment.CHAINS)), data.draw(speeds)))
        plan = augment.AugmentPlan(augment.UtteranceManifest(utts), entries)
        out_dir = data.draw(shell.map(lambda d: f"/o/{d}"))

        def render(fn):
            try:
                return fn(plan, out_dir)
            except ContractError as e:  # gsm on keep16k
                return str(e)

        assert render(augment.render_commands) == render(oracle_render_commands)

    def test_emit_writes_every_id_once(self, tmp_path):
        man = manifest(10)
        plan = augment.plan_rate_chain(augment.assign_codec(man, 0.5, 3), "down8k")
        path = augment.emit_commands(plan, tmp_path)
        lines = path.read_text().splitlines()
        assert len(lines) == 10
        for utt_id in man.ids:
            assert sum(f"/{utt_id}.wav" in ln for ln in lines) == 1


class TestPlanIO:
    def test_manifest_roundtrip(self, tmp_path):
        man = manifest(5)
        path = tmp_path / "man.tsv"
        augment.write_manifest(man, path)
        back = augment.read_manifest(path)
        assert back.ids == man.ids
        assert back.utterances[2].duration_s == man.utterances[2].duration_s

    def test_plan_roundtrip(self, tmp_path):
        man = manifest(8)
        plan = augment.assign_speed(
            augment.plan_rate_chain(augment.assign_codec(man, 0.5, 1), "down8k-up16k"),
            True,
            seed=2,
        )
        path = tmp_path / "plan.tsv"
        augment.write_plan(plan, path)
        back = augment.read_plan(path, man)
        assert back.entries == plan.entries

    def test_malformed_manifest(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("utt1\t/p.wav\tnotanumber\t16000\n")
        with pytest.raises(FormatError):
            augment.read_manifest(path)
