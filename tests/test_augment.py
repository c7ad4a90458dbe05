from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_emit_commands, oracle_plan, oracle_render_commands, oracle_write_plan

from svkit import augment
from svkit.errors import ContractError, FormatError


def manifest(n=4, rate=16000):
    return augment.UtteranceManifest(
        [augment.Utterance(f"utt{k}", f"/data/utt{k}.wav", 3.0 + k, rate) for k in range(n)]
    )


def plan(man, fraction, seed, mode="down8k", **speed):
    return augment.plan_augmentation(man, fraction, mode, seed, **speed)


class TestAssignCodec:
    def test_exact_half_for_all_n(self):
        for n in range(1, 51):
            p = plan(manifest(n), 0.5, seed=n)
            flagged = sum(e.codec == "gsm" for e in p.entries)
            assert flagged == int(np.floor(0.5 * n + 0.5))
            mask = augment.assign_codec(n, 0.5, seed=n)
            assert mask.dtype == bool and [e.codec == "gsm" for e in p.entries] == mask.tolist()

    def test_zero_fraction(self):
        p = plan(manifest(10), 0.0, seed=1)
        assert all(e.codec == "none" for e in p.entries)

    def test_full_fraction(self):
        p = plan(manifest(10), 1.0, seed=1)
        assert all(e.codec == "gsm" for e in p.entries)

    def test_deterministic_per_seed(self):
        a = plan(manifest(20), 0.5, seed=9)
        b = plan(manifest(20), 0.5, seed=9)
        assert [e.codec for e in a.entries] == [e.codec for e in b.entries]
        c = plan(manifest(20), 0.5, seed=10)
        assert sum(e.codec == "gsm" for e in c.entries) == 10

    def test_entries_follow_manifest_order(self):
        man = manifest(7)
        p = plan(man, 0.4, seed=2)
        assert [e.utt_id for e in p.entries] == man.ids

    def test_bad_fraction(self):
        with pytest.raises(ContractError, match=r"fraction must be in \[0, 1\], got 1.5"):
            plan(manifest(3), 1.5, seed=0)


class TestRateChainAndSpeed:
    def test_chain_recorded(self):
        for mode in augment.CHAINS:
            p = plan(manifest(5), 0.0 if mode == "keep16k" else 0.5, seed=0, mode=mode)
            assert all(e.chain == mode for e in p.entries)

    def test_unknown_mode(self):
        for n in (2, 0):  # the mode check is the one check that an empty manifest reaches
            with pytest.raises(ContractError, match="unknown chain mode 'down4k'"):
                plan(manifest(n), 0.0, seed=0, mode="down4k")

    def test_speed_off_all_unity(self):
        p = plan(manifest(6), 0.5, seed=0, speed_perturb=False, speed_seed=5)
        assert all(e.speed == 1.0 for e in p.entries)

    def test_speed_reproducible(self):
        a = plan(manifest(30), 0.0, 0, speed_perturb=True, speed_seed=11)
        b = plan(manifest(30), 0.0, 0, speed_perturb=True, speed_seed=11)
        assert [e.speed for e in a.entries] == [e.speed for e in b.entries]
        assert set(e.speed for e in a.entries) <= set(augment.SPEED_FACTORS)
        assert [e.speed for e in a.entries] == augment.assign_speed(30, True, seed=11)

    def test_speed_histogram_roughly_uniform(self):
        p = plan(manifest(3000), 0.0, 0, speed_perturb=True, speed_seed=42)
        speeds = np.array([e.speed for e in p.entries])
        for f in augment.SPEED_FACTORS:
            frac = np.mean(speeds == f)
            assert abs(frac - 1 / 3) < 0.03

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(0, 60),
           fraction=st.one_of(st.floats(0, 1), st.floats(), st.sampled_from([0.0, 0.5, 1.0])),
           mode=st.one_of(st.sampled_from(augment.CHAINS), st.text(max_size=8)),
           seed=st.integers(min_value=0), speed_perturb=st.booleans(),
           speed_seed=st.one_of(st.none(), st.integers(min_value=0)))
    def test_equals_the_three_stages(self, n, fraction, mode, seed, speed_perturb, speed_seed):
        """The entries of the earlier three stages, or their error; a gsm entry
        on keep16k is the error that rendering those entries gave."""
        man = manifest(n)
        try:
            want = oracle_plan(man, fraction, mode, seed, speed_perturb, speed_seed)
            oracle_render_commands(SimpleNamespace(manifest=man, entries=want), "/o")
        except ContractError as e:
            want = str(e)
        try:
            got = augment.plan_augmentation(man, fraction, mode, seed, speed_perturb, speed_seed).entries
        except ContractError as e:
            got = str(e)
        assert got == want


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
        with pytest.raises(ContractError, match="^duplicate utterance id 'b'$"):
            augment.UtteranceManifest([augment.Utterance(i, "p", 1.0, 16000) for i in "abcb"])


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
        assert list(augment.render_commands(plan, "/out")) == GOLDEN[mode]

    def test_keep16k_matches_golden(self):
        plan = self._plan("keep16k", codec_first=False)
        assert list(augment.render_commands(plan, "/out")) == GOLDEN["keep16k"]

    def test_codec_on_keep16k_rejected(self):
        # a plan that cannot be rendered cannot be built
        with pytest.raises(ContractError, match="^utt1: codec requires an 8 kHz chain, not keep16k$"):
            self._plan("keep16k", codec_first=True)

    def test_speed_appends_effect(self):
        man = self._manifest()
        entries = [
            augment.PlanEntry("utt1", "gsm", "down8k", 0.9),
            augment.PlanEntry("utt2", "none", "keep16k", 1.1),
        ]
        got = list(augment.render_commands(augment.AugmentPlan(man, entries), "/out"))
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
        man = augment.UtteranceManifest(utts)
        out_dir = data.draw(shell.map(lambda d: f"/o/{d}"))
        try:
            want = oracle_render_commands(SimpleNamespace(manifest=man, entries=entries), out_dir)
        except ContractError as e:  # gsm on keep16k: the plan cannot be built
            with pytest.raises(ContractError) as built:
                augment.AugmentPlan(man, entries)
            assert str(built.value) == str(e)
        else:
            assert list(augment.render_commands(augment.AugmentPlan(man, entries), out_dir)) == want

    def test_emit_writes_every_id_once(self, tmp_path):
        man = manifest(10)
        path = augment.emit_commands(plan(man, 0.5, 3), tmp_path)
        lines = path.read_text().splitlines()
        assert len(lines) == 10
        for utt_id in man.ids:
            assert sum(f"/{utt_id}.wav" in ln for ln in lines) == 1

    def test_render_streams_lines(self):
        lines = augment.render_commands(plan(manifest(3), 0.5, 3), "/out")
        assert iter(lines) is lines  # a generator, not a list of every line
        assert len(list(lines)) == 3

    @pytest.mark.parametrize("speed_perturb", [False, True])
    @pytest.mark.parametrize("mode", augment.CHAINS)
    def test_streamed_files_equal_the_oracle_writers(self, tmp_path, mode, speed_perturb):
        p = plan(manifest(300), 0 if mode == "keep16k" else 0.37, 7, mode, speed_perturb=speed_perturb)
        for root, emit, write in [("got", augment.emit_commands, augment.write_plan),
                                  ("want", oracle_emit_commands, oracle_write_plan)]:
            write(p, emit(p, tmp_path / root).parent / "plan.tsv")
        for name in ("commands.txt", "plan.tsv"):
            got, want = (tmp_path / root / name for root in ("got", "want"))
            # out_dir is in every line, so the two roots differ only there
            assert got.read_bytes().replace(b"/got/", b"/want/") == want.read_bytes()


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
        p = plan(man, 0.5, 1, mode="down8k-up16k", speed_perturb=True, speed_seed=2)
        path = tmp_path / "plan.tsv"
        augment.write_plan(p, path)
        back = augment.read_plan(path, man)
        assert back.entries == p.entries

    def test_plan_with_gsm_on_keep16k_rejected(self, tmp_path):
        path = tmp_path / "plan.tsv"
        path.write_text("utt0\tnone\tkeep16k\t1\nutt1\tgsm\tkeep16k\t1\n")
        with pytest.raises(FormatError, match="utt1: codec requires an 8 kHz chain, not keep16k"):
            augment.read_plan(path, manifest(2))

    def test_malformed_manifest(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("utt1\t/p.wav\tnotanumber\t16000\n")
        with pytest.raises(FormatError):
            augment.read_manifest(path)
