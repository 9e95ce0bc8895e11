"""The error that every settings dataclass raises for a field out of bounds."""


class BadSetting(ValueError):
    """A settings field outside its bounds; `field` names it, `rule` says why."""

    def __init__(self, field: str, rule: str):
        super().__init__(f"{field} {rule}")
        self.field, self.rule = field, rule


def require(ok: bool, field: str, rule: str, error: type = BadSetting) -> None:
    if not ok:
        raise error(field, rule)
