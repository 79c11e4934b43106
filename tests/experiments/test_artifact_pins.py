"""Artifact bytes, pinned: the refactoring contract in executable form.

Each case below is a tiny run of a registered experiment; its canonical
artifact JSON is sha256-pinned at seeds 1 and 2.  A change to how a
setting is described, built or wired — topology construction, traffic
generation, scheduler installation, the recording key — may move
timings and cache entries, never a result byte.  A change that *means*
to move results re-pins here and says why.

Coverage beyond the registry's one-tiny-spec-each (``TINY``): every
Table 1 row (the topologies, loads and originals the default row skips),
Figure 1 over all six originals, the scenario matrix over every
built-in scenario, and a branch sweep under every original.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.api import ExperimentSpec, run
from tests.api.test_registry import TINY

ORIGINALS = ("random", "fifo", "fq", "sjf", "lifo", "fq+fifo+")
MATRIX_SCENARIOS = ("websearch-incast", "datamining-a2a", "internet-permutation",
                    "pareto-burst", "datamining-incast-slow")

CASES: dict[str, dict] = {
    **{f"tiny/{name}": dict(experiment=name, **kwargs)
       for name, kwargs in TINY.items()},
    "table1/all-rows": dict(experiment="table1", duration=0.04),
    "fig1/all-originals": dict(experiment="fig1", duration=0.04),
    **{f"scenario-matrix/{name}": dict(experiment="scenario-matrix",
                                       duration=0.006, scenarios=(name,))
       for name in MATRIX_SCENARIOS},
    **{f"branch/{original}": dict(experiment="branch", duration=0.01,
                                  schedulers=(original,),
                                  options={"warmup": 0.02})
       for original in ORIGINALS},
}

PINS: dict[tuple[str, int], str] = {
    ("tiny/table1", 1): "8801d6c4b7a9bc73624a0b3beb4513dd478cb40e8fb0a2a30f5e1125d6123317",
    ("tiny/table1", 2): "0476e39a66fb4eaa94a5acd7b8b7ced6865786e2beaf354e5901b05af965e13b",
    ("tiny/fig1", 1): "e1db609dba6d83004089ca3f6f0bffc79098b9f8e5508016077f74d23b01d25a",
    ("tiny/fig1", 2): "2d5f3f8508acb09c2ee96fef14bf37d2d4a59af0dbc5a261374113e2edd378fd",
    ("tiny/fig2", 1): "1f0007e974503226d6a008ebc88f44eeb4c21716dccf8a50007fb5e137dfec0c",
    ("tiny/fig2", 2): "389d392f377206d0c441794edf620487af4b8e3a41e703706562152ff92c9225",
    ("tiny/fig3", 1): "50c31809eef050203f38862c70d514ac9442417c20dfe7f616e9f0563ff1e614",
    ("tiny/fig3", 2): "32950b6e2c658bcd3bb4c0fca506d8a950f5f358a062f12df4fe41943bc3ea86",
    ("tiny/fig4", 1): "2276519a248e3b4bd1d07507b73aca615b5026048ebcaaaa3610639118866728",
    ("tiny/fig4", 2): "f9bf6412932f176e8cd29463c2a4c1692c1899f9a800cadf078540d80dbeebb0",
    ("tiny/weighted", 1): "4a0f5d572a9145daaa124e71ae4d47bb37231067d0b18cb70224a57c8ef8c8a3",
    ("tiny/weighted", 2): "c5522e416f44db32d6cc8fcdfd258e2833364d90acc757230ce5f9ee3ce41125",
    ("tiny/info", 1): "b91dde9b4e44ddfd9bc3c66c08bcfd60d1cd810eb1f8c64705092560b14a8c8f",
    ("tiny/info", 2): "c96e4c75bc2455396d351fa9a5f807ad407c1bb3bb9215e11a7e82128e8e9a37",
    ("tiny/gadgets", 1): "382d212371ab795d5ecfcd42429459bfdb0320ab2b04cd24dab0df5d229fa56f",
    ("tiny/gadgets", 2): "104f0d28814b8e09e582e2a669a19cb537f1fa59fc252b4c7c93fefaf0a31e08",
    ("tiny/branch", 1): "9f19f988ed7571533b2303bd85fc68422167c87b4b46ecf76ec433725a4b3ade",
    ("tiny/branch", 2): "933442c609181c9733e43337831a31d7666a4e58f0bc91db486100761207e2b2",
    ("tiny/scenario-matrix", 1): "1fc6b8c03aa887f71bca608dbe0b46fa504843d6dff990cfaa9caff70fcb221f",
    ("tiny/scenario-matrix", 2): "706442985b5624dab82e9898de1b19c59718d7ed677521c7b01acd8c49ae334d",
    ("table1/all-rows", 1): "50b834f9d4136c98995889547c2b13c4e06685f4888475860d4d4a1435c914b4",
    ("table1/all-rows", 2): "e94be01b6fc2da3a2ed6afbd03e0ee4120fb722e4417a91b3fb82b3f5d3d8723",
    ("fig1/all-originals", 1): "28140ff2895ab359934a165a267021f0782dd99ed238b86be4bd9e112246a600",
    ("fig1/all-originals", 2): "6553ac9f2d6c49343784d8d6275737fa01b4d3556cd780e772eb43bedec11af2",
    ("scenario-matrix/websearch-incast", 1): "30f2d6637fea8fa823f9895be2efac6676092bbcd74091dd972bfac5c3c67727",
    ("scenario-matrix/websearch-incast", 2): "81a9d3b7224391ee4c04c1712ee060e9dd6834a13de42f00ad0b91e2f34621e2",
    ("scenario-matrix/datamining-a2a", 1): "b4bf8c1cb9131910fbdbd43c2637fed765f5badb04ec28cb7eb6140c19b534e5",
    ("scenario-matrix/datamining-a2a", 2): "c372a508f6f34e8df807f39fd0edd99daa9013c3f6603760976695d3122c474d",
    ("scenario-matrix/internet-permutation", 1): "27664f08941d0fb97066cd1b1b2917ef9f99a2fe87b8eaa1082653f14c9fb1e2",
    ("scenario-matrix/internet-permutation", 2): "273c3970cd1417f29b3cc9fd7e1ab4ab60167cc52739873bd997754229157972",
    ("scenario-matrix/pareto-burst", 1): "251f01329fb52b52f51d2782f814bf57337c644387c22dd3fbf2ccf2419c76ab",
    ("scenario-matrix/pareto-burst", 2): "39e441e3a864a36ccb7753ed39bd1e0281cc101f068f67dd92d3a31776eec536",
    ("scenario-matrix/datamining-incast-slow", 1): "89ff42fb5be0997eae5897e2352e13710bea0d39a42fd8852b43283cc960e266",
    ("scenario-matrix/datamining-incast-slow", 2): "e3e11c8bfdd7a12a51bf3d53ac45fd43168c6cb54440a23ad62c0bae7aeabdf7",
    ("branch/random", 1): "ed862e5577145cf989986a934081730450b4fa82ab499924c765359905b7b51b",
    ("branch/random", 2): "5bf0e04a988817c76139f61f5d3c00dadf050ac11f550940de7d1c8ba06fd361",
    ("branch/fifo", 1): "66c0d6285a2f1c251ccda507975b6c3ce0f29588687ce58493be7eaf1030f572",
    ("branch/fifo", 2): "96871374a8f1f35e419b978fcc08784aeb42d3145e6baf44317d683c782fbb80",
    ("branch/fq", 1): "dd3301e1a4dcd1158664de5a149ca91fa6fb0efa6e311da6d1a62d47c9ffe1ae",
    ("branch/fq", 2): "aeeda670b2d5ddc39eaad85e4de6548d397041d76b4575beb8a0766ab19971b4",
    ("branch/sjf", 1): "e04bc6ea76b4c39f3d5e279e33fcebdfe6d844620f9bc54c6120cb2e6c7a9182",
    ("branch/sjf", 2): "4e1cfa840dd7efda99d35594bd8615812705c60d40f175ec6ff9d673bdccbcc0",
    ("branch/lifo", 1): "d3d005c8d4efd71b5d264bc4abd01026799b70dc2f18c2ddfba0c0b13669e709",
    ("branch/lifo", 2): "1d4e661ff1ab30f6d581a58c14857c26518b66afa882229db08a4eba40d21fbe",
    ("branch/fq+fifo+", 1): "25d0636769f82f327073d8ef63fa2a71969d82be165c17ae6f377f5a34322448",
    ("branch/fq+fifo+", 2): "fb6922ba125bc31d6d248480bc5d79f66063df622afc2246051a66a8c868aa5c",
}


def artifact_digest(case: str, seed: int) -> str:
    """sha256 of the case's canonical artifact JSON at ``seed``."""
    artifact = run(ExperimentSpec(**CASES[case], seeds=(seed,)))
    return hashlib.sha256(artifact.canonical_json().encode()).hexdigest()


def test_every_case_is_pinned_at_both_seeds():
    assert set(PINS) == {(case, seed) for case in CASES for seed in (1, 2)}


@pytest.mark.parametrize("case, seed", sorted(PINS))
def test_artifact_bytes_are_pinned(case, seed):
    assert artifact_digest(case, seed) == PINS[case, seed]
