from .cli import program

program()
