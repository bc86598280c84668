"""Property-based tests: StateDatabase against a model dictionary."""

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, invariant, rule

from repro.ledger.state_db import StateDatabase, Version

keys = st.sampled_from(["a", "b", "c", "d", "e"])
values = st.integers(min_value=-1000, max_value=1000)


@given(st.dictionaries(keys, values))
def test_populate_round_trips(initial):
    db = StateDatabase()
    db.populate(initial)
    for key, value in initial.items():
        assert db.get_value(key) == value


@given(
    st.lists(
        st.dictionaries(keys, values, min_size=1),
        min_size=1,
        max_size=10,
    )
)
def test_blocks_apply_like_dict_updates(blocks):
    db = StateDatabase()
    model = {}
    for block_id, writes in enumerate(blocks, start=1):
        db.apply_block_writes(block_id, [(Version(block_id, 0), writes)])
        model.update(writes)
    for key, value in model.items():
        assert db.get_value(key) == value
    assert len(db) == len(model)
    assert db.last_block_id == len(blocks)


@given(
    st.lists(
        st.dictionaries(keys, values, min_size=1),
        min_size=1,
        max_size=8,
    )
)
def test_versions_track_last_writer(blocks):
    db = StateDatabase()
    last_writer = {}
    for block_id, writes in enumerate(blocks, start=1):
        db.apply_block_writes(block_id, [(Version(block_id, 0), writes)])
        for key in writes:
            last_writer[key] = Version(block_id, 0)
    for key, version in last_writer.items():
        assert db.read(key)[1] == version


class StateMachine(RuleBasedStateMachine):
    """Stateful comparison of StateDatabase against a dict model."""

    def __init__(self):
        super().__init__()
        self.db = StateDatabase()
        self.model = {}
        self.block_id = 0
        self.snapshots = []

    @rule(writes=st.dictionaries(keys, values, min_size=1, max_size=3))
    def apply_block(self, writes):
        self.block_id += 1
        self.db.apply_block_writes(
            self.block_id, [(Version(self.block_id, 0), writes)]
        )
        self.model.update(writes)

    @rule()
    def take_snapshot(self):
        self.snapshots.append((self.db.copy(), dict(self.model)))

    @invariant()
    def db_matches_model(self):
        assert len(self.db) == len(self.model)
        for key, value in self.model.items():
            assert self.db.get_value(key) == value

    @invariant()
    def snapshots_stay_frozen(self):
        for snapshot, frozen_model in self.snapshots:
            assert len(snapshot) == len(frozen_model)
            for key, value in frozen_model.items():
                assert snapshot.get(key).value == value


TestStateMachine = StateMachine.TestCase
TestStateMachine.settings = settings(max_examples=30, stateful_step_count=20)
