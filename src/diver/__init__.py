"""Evidence generation for text-to-SQL via database probing, plus evaluation."""

__version__ = "0.1.0"
