"""Unit tests for ORM field coercion, validation, and DDL."""

import datetime as dt

import pytest

from repro.webstack.orm import (BooleanField, CharField, DateTimeField,
                                EmailField, FloatField, IntegerField,
                                JSONField, ValidationError)


class TestIntegerField:
    def test_coerces_strings(self):
        f = IntegerField()
        f.name = "n"
        assert f.clean("42") == 42

    def test_rejects_garbage(self):
        f = IntegerField()
        f.name = "n"
        with pytest.raises(ValidationError):
            f.clean("forty-two")

    def test_rejects_booleans(self):
        f = IntegerField()
        f.name = "n"
        with pytest.raises(ValidationError):
            f.clean(True)

    def test_bounds(self):
        f = IntegerField(min_value=1, max_value=10)
        f.name = "n"
        assert f.clean(10) == 10
        with pytest.raises(ValidationError):
            f.clean(0)
        with pytest.raises(ValidationError):
            f.clean(11)

    def test_null_rejected_when_not_nullable(self):
        f = IntegerField()
        f.name = "n"
        with pytest.raises(ValidationError):
            f.clean(None)

    def test_null_allowed_when_nullable(self):
        f = IntegerField(null=True)
        f.name = "n"
        assert f.clean(None) is None


class TestFloatField:
    def test_coerces(self):
        f = FloatField()
        f.name = "x"
        assert f.clean("1.5") == 1.5

    def test_rejects_nan(self):
        f = FloatField()
        f.name = "x"
        with pytest.raises(ValidationError):
            f.clean(float("nan"))

    def test_bounds(self):
        f = FloatField(min_value=0.0, max_value=1.0)
        f.name = "x"
        with pytest.raises(ValidationError):
            f.clean(1.01)


class TestCharField:
    def test_max_length_enforced(self):
        f = CharField(max_length=3)
        f.name = "s"
        assert f.clean("abc") == "abc"
        with pytest.raises(ValidationError):
            f.clean("abcd")

    def test_choices_enforced(self):
        f = CharField(max_length=10, choices=[("a", "A"), ("b", "B")])
        f.name = "s"
        assert f.clean("a") == "a"
        with pytest.raises(ValidationError):
            f.clean("c")

    def test_ddl_includes_length_check(self):
        f = CharField(max_length=5)
        f.name = f.column = "s"
        assert "LENGTH" in f.db_column_sql()

    def test_ddl_includes_choices_check(self):
        f = CharField(max_length=5, choices=[("x", "X")])
        f.name = f.column = "s"
        assert "CHECK" in f.db_column_sql() and "'x'" in f.db_column_sql()


class TestEmailField:
    def test_accepts_valid(self):
        f = EmailField()
        f.name = "e"
        assert f.clean("user@example.org") == "user@example.org"

    @pytest.mark.parametrize("bad", ["plainstring", "a@b", "@x.com", "a b@c.de"])
    def test_rejects_invalid(self, bad):
        f = EmailField()
        f.name = "e"
        with pytest.raises(ValidationError):
            f.clean(bad)


class TestBooleanField:
    @pytest.mark.parametrize("raw,expected", [
        (True, True), (False, False), ("true", True), ("0", False),
        (1, True), ("on", True), ("", False),
    ])
    def test_coercion(self, raw, expected):
        f = BooleanField()
        f.name = "b"
        assert f.clean(raw) is expected

    def test_db_round_trip_types(self):
        f = BooleanField()
        assert f.to_db(True) == 1
        assert f.from_db(0) is False


class TestDateTimeField:
    def test_iso_round_trip(self):
        f = DateTimeField()
        f.name = "t"
        when = dt.datetime(2009, 10, 1, 12, 30)
        assert f.to_python(f.to_db(when)) == when

    def test_rejects_nondate(self):
        f = DateTimeField()
        f.name = "t"
        with pytest.raises(ValidationError):
            f.clean("not-a-date")

    def test_auto_now_add_is_not_editable(self):
        f = DateTimeField(auto_now_add=True)
        assert f.editable is False


class TestJSONField:
    def test_round_trip(self):
        f = JSONField()
        f.name = "j"
        payload = {"retries": 3, "hosts": ["kraken", "frost"]}
        assert f.from_db(f.to_db(payload)) == payload

    def test_rejects_unserialisable(self):
        f = JSONField()
        f.name = "j"
        with pytest.raises(ValidationError):
            f.clean({"bad": object()})

    def test_sorted_keys_stable(self):
        f = JSONField()
        assert f.to_db({"b": 1, "a": 2}) == '{"a": 2, "b": 1}'


class TestJSONEncodedOnce:
    """A write encodes each JSON value once: the ``json.dumps`` that
    proves the value serialisable is the text bound to the statement."""

    @pytest.fixture()
    def encodes(self, monkeypatch):
        import json
        payloads = []
        dumps = json.dumps

        def counting(value, *args, **kwargs):
            payloads.append(value)
            return dumps(value, *args, **kwargs)

        monkeypatch.setattr(json, "dumps", counting)
        return payloads

    def test_each_write_path_encodes_once(self, db, encodes):
        from .conftest import Author, Book
        author = Author.objects.create(name="Once")
        tags = {"hosts": ["kraken", "frost"], "retries": 3}
        book = Book(author=author, title="t", tags=tags)
        book.save()
        assert encodes == [tags]
        book.tags = {"retries": 4}
        book.save()
        assert encodes[1:] == [{"retries": 4}]
        del encodes[:]
        Book.objects.using(db).bulk_update([book], ["tags"])
        assert encodes == [{"retries": 4}]
        del encodes[:]
        Book.objects.using(db).bulk_create(
            [Book(author=author, title=f"b{n}", tags=[n]) for n in range(3)])
        assert encodes == [[0], [1], [2]]
        assert Book.objects.get(pk=book.pk).tags == {"retries": 4}

    def test_unserialisable_is_refused_before_any_statement(self, db):
        from .conftest import Author, Book
        author = Author.objects.create(name="Refused")
        book = Book(author=author, title="t", tags={"bad": object()})
        for write in (book.save,
                      lambda: Book.objects.using(db).bulk_create([book])):
            with db.count_queries() as counter:
                with pytest.raises(ValidationError) as refused:
                    write()
            assert refused.value.error_dict == {
                "tags": ["Value is not JSON-serialisable."]}
            assert counter.count == 0
        saved = Book(author=author, title="saved", tags=[1])
        saved.save()
        saved.tags = {1: object()}
        with db.count_queries() as counter:
            with pytest.raises(ValidationError) as refused:
                Book.objects.using(db).bulk_update([saved], ["tags"])
        assert refused.value.messages == ["Value is not JSON-serialisable."]
        assert counter.count == 0
