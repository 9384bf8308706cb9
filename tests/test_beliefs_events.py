"""Belief base mutation events and event pattern matching."""

import pytest

from coagent.bdi.beliefs import BeliefBase, BeliefError
from coagent.bdi.events import EventCategory, TriggeringEvent, pattern


class TestBeliefBase:
    def test_first_write_emits_belief_added(self):
        base = BeliefBase()
        te = base.set("x", 3)
        assert te == TriggeringEvent(EventCategory.BELIEF_ADDED, "x", {"value": 3})

    def test_change_emits_belief_updated_with_old_and_new(self):
        base = BeliefBase({"x": 3})
        te = base.set("x", 5)
        assert te == TriggeringEvent(EventCategory.BELIEF_UPDATED, "x", {"old": 3, "new": 5})

    def test_unchanged_write_is_silent(self):
        base = BeliefBase({"x": 3})
        assert base.set("x", 3) is None

    def test_remove_emits_belief_removed(self):
        base = BeliefBase({"x": 3})
        te = base.remove("x")
        assert te == TriggeringEvent(EventCategory.BELIEF_REMOVED, "x", {"old": 3})
        assert base.remove("x") is None

    def test_exactly_one_event_per_mutation(self):
        base = BeliefBase()
        events = [base.set("x", 1), base.set("x", 2), base.remove("x")]
        assert all(te is not None for te in events)
        assert len(events) == 3

    def test_keys_are_unique_map_semantics(self):
        base = BeliefBase()
        base.set("x", 1)
        base.set("x", 2)
        assert base.as_dict() == {"x": 2}

    def test_reserved_keys_rejected(self):
        with pytest.raises(BeliefError):
            BeliefBase({"payload": 1})
        with pytest.raises(BeliefError):
            BeliefBase().set("subject", 1)

    @pytest.mark.parametrize(
        "key, message",
        [
            ("", "belief key must be a non-empty string, got ''"),
            (3, "belief key must be a non-empty string, got 3"),
            (None, "belief key must be a non-empty string, got None"),
            ("not", "belief key 'not' collides with a reserved expression name"),
        ],
    )
    def test_a_base_built_from_facts_refuses_a_key_as_set_does(self, key, message):
        # The constructor tests its keys inline and refuses through the
        # one check ``set`` uses, so both give the same message.
        for build in (lambda: BeliefBase({"x": 1, key: 2}), lambda: BeliefBase().set(key, 2)):
            with pytest.raises(BeliefError) as excinfo:
                build()
            assert str(excinfo.value) == message

    def test_a_base_built_from_facts_copies_them(self):
        facts = {"x": 1, "y": "a"}
        base = BeliefBase(facts)
        base.set("x", 2)
        assert facts == {"x": 1, "y": "a"} and base.as_dict() == {"x": 2, "y": "a"}
        assert base.get("y") == "a" and base.get("z") is None


class TestEventPattern:
    def test_category_and_subject_match(self):
        p = pattern("belief-updated", "deployed")
        assert p.matches(TriggeringEvent(EventCategory.BELIEF_UPDATED, "deployed", {}))
        assert not p.matches(TriggeringEvent(EventCategory.BELIEF_ADDED, "deployed", {}))
        assert not p.matches(TriggeringEvent(EventCategory.BELIEF_UPDATED, "capacity", {}))

    def test_category_alternatives(self):
        p = pattern(["belief-added", "belief-updated"], "deployed")
        assert p.matches(TriggeringEvent(EventCategory.BELIEF_ADDED, "deployed", {}))
        assert p.matches(TriggeringEvent(EventCategory.BELIEF_UPDATED, "deployed", {}))
        assert not p.matches(TriggeringEvent(EventCategory.BELIEF_REMOVED, "deployed", {}))

    def test_wildcard_category_and_subject(self):
        p = pattern(None, None)
        assert p.matches(TriggeringEvent(EventCategory.GOAL_ADDED, "anything", {"k": 1}))

    def test_subject_prefix(self):
        p = pattern("belief-updated", "type-*")
        assert p.matches(TriggeringEvent(EventCategory.BELIEF_UPDATED, "type-1", {}))
        assert not p.matches(TriggeringEvent(EventCategory.BELIEF_UPDATED, "demand", {}))

    def test_payload_wildcards(self):
        # Keys not listed in the pattern are wildcards.
        p = pattern("goal-added", "g", {"v": 1})
        assert p.matches(TriggeringEvent(EventCategory.GOAL_ADDED, "g", {"v": 1, "w": 9}))
        assert not p.matches(TriggeringEvent(EventCategory.GOAL_ADDED, "g", {"v": 2}))
        assert not p.matches(TriggeringEvent(EventCategory.GOAL_ADDED, "g", {}))

    def test_empty_payload_pattern_matches_any_payload(self):
        p = pattern("goal-added", "g")
        assert p.matches(TriggeringEvent(EventCategory.GOAL_ADDED, "g", {"anything": 1}))
